(** A simulated cluster running one protocol stack on every process.

    [create] wires a {!Abcast_core.Proto.t} into an engine: it installs a
    behaviour per process that (re)creates the protocol at each
    incarnation and records deliveries and broadcast completions. The wire
    message type stays hidden; scenarios drive the run through the
    monomorphic operations below. *)

type t

val create :
  Abcast_core.Proto.t ->
  seed:int ->
  n:int ->
  ?net:Abcast_sim.Net.t ->
  ?count_bytes:bool ->
  ?storage:(metrics:Abcast_sim.Metrics.t -> node:int -> Abcast_sim.Storage.t) ->
  ?flight:(node:int -> Abcast_sim.Flight.t) ->
  unit ->
  t
(** Build the cluster and start every process. [count_bytes] (default
    false) enables per-message byte accounting (slower: serializes every
    message). [storage] selects the stable-storage backend per process
    (default memory-only; see {!Abcast_sim.Engine.create}). [flight]
    gives each process a real flight recorder — tests dump them to a
    run directory and feed {!Abcast_harness.Doctor}. *)

val n : t -> int
val metrics : t -> Abcast_sim.Metrics.t

val flight : t -> int -> Abcast_sim.Flight.t
(** A process's flight recorder ([Flight.disabled] no-op unless [create]
    got a [flight] factory). *)

val histogram : t -> string -> Abcast_util.Histogram.t option
(** Latency/size histogram of an observed series, merged across all
    processes ([None] if the series was never observed). *)

val hist_summary : t -> string -> Abcast_util.Histogram.summary option
(** Percentile summary of {!histogram} — the one-call way for a test or
    experiment to read e.g. [stage.propose_to_adeliver_us]. *)


val net : t -> Abcast_sim.Net.t
val now : t -> int
val events_processed : t -> int

val run : ?until:int -> ?max_events:int -> t -> unit
val run_until :
  ?until:int -> ?max_events:int -> t -> pred:(unit -> bool) -> unit -> bool

val at : t -> int -> (unit -> unit) -> unit
val after : t -> int -> (unit -> unit) -> unit

val crash : t -> int -> unit
val recover : t -> int -> unit
val is_up : t -> int -> bool

val apply_faults : t -> Abcast_sim.Faults.plan -> unit
(** Schedule every crash and recovery of a fault plan, in plan order. *)

val broadcast :
  t -> ?on_agreed:(Abcast_core.Payload.id -> unit) -> ?group:int ->
  node:int -> string -> Abcast_core.Payload.id option
(** Inject an [A-broadcast] at a process; [None] if it is down. The id
    and its completion are recorded — tagged with [group] (default 0) —
    for the property checks. On a sharded stack the caller picks the
    group (e.g. via {!Partitioned_kv} routing); the harness never hash
    routes, so the checks always know which group owns each id.
    @raise Invalid_argument on a group outside [0 .. shards-1]. *)

(** The accessors below read one broadcast group when [?group] is given
    and the whole stack otherwise, as {!Abcast_core.Proto} aggregates it:
    counts summed over groups, tails concatenated in group order, group
    0's clock. On a single-group stack both readings coincide.
    @raise Invalid_argument on a group outside [0 .. shards-1]. *)

val round : ?group:int -> t -> int -> int
val delivered_count : ?group:int -> t -> int -> int
val delivered_tail : ?group:int -> t -> int -> Abcast_core.Payload.t list

val settle : t -> among:int list -> int list
(** Run on in 2-simulated-second steps until the delivered counts of
    [among] read the same twice in a row (at most 32 steps), and return
    them: the quiescence that P3 ({!Lemmas.check_converged}) needs. *)

val delivery_vc : ?group:int -> t -> int -> Abcast_core.Vclock.t
val unordered_count : ?group:int -> t -> int -> int
val retained_bytes : t -> int -> int
(** Live stable-storage footprint of a process (experiment E3). *)

val retained_keys : t -> int -> int

val disk_bytes : t -> int -> int
(** On-disk footprint of a process's storage backend (0 for memory) —
    what WAL compaction keeps bounded. *)

val wal_stats : t -> int -> Abcast_store.Wal.stats option
(** WAL backend counters of a process ([None] unless the cluster was
    created with a [`Wal] storage factory). *)

val read_storage : t -> int -> string -> string option
(** Peek at a key of a process's stable storage (works whether the
    process is up or down — the lemma monitors use it to audit logs). *)

val storage_keys : t -> int -> string -> string list
(** All stored keys of a process with the given prefix, sorted. *)

val corrupt_storage : t -> int -> key:string -> string -> unit
(** Fault injection outside the model: overwrite a stable-storage key
    behind the protocol's back (disk corruption). The protocols do NOT
    promise to survive this — it exists so tests can prove the lemma
    monitors detect log tampering, and so the audit sentinel test can
    make a node break total order: rewrite a crashed node's logged
    consensus decision, then recover it and let replay apply it. Works
    whether the process is up or down. *)

val sent : t -> (Abcast_core.Payload.id * bool) list
(** Every id injected through {!broadcast}, with whether its completion
    callback has fired at the origin ("the A-broadcast returned"). *)

val sent_in : t -> group:int -> (Abcast_core.Payload.id * bool) list
(** {!sent} restricted to the ids injected into one broadcast group. *)

val broadcast_blocks : t -> bool
(** Whether this stack's [A-broadcast] blocks until local agreement
    (basic protocol) or returns at log time (early-return alternative) —
    drives the pacing of closed-loop clients. *)

val ever_delivered : t -> Abcast_core.Payload.id list
(** Every id that was A-delivered by any process at any point of the run
    (including by processes that later crashed) — the obligation set of
    the uniform termination property's clause (2). Spans all groups; ids
    of distinct groups may collide. *)

val ever_delivered_in : t -> group:int -> Abcast_core.Payload.id list
(** {!ever_delivered} restricted to one broadcast group. *)

val shards : t -> int
(** Number of broadcast groups of the running stack (1 unless built by
    {!Abcast_core.Factory.sharded}). *)

val all_caught_up : t -> ?group:int -> ?among:int list -> count:int -> unit -> bool
(** Whether every listed (default: all) process has delivered at least
    [count] messages (in one group when [?group] is given, in total
    otherwise). *)
