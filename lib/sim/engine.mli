(** Deterministic discrete-event simulation engine.

    The engine owns simulated time, an event heap, [n] processes and the
    network. A run is a pure function of the root seed: every stochastic
    choice flows from it, ties are broken by insertion order, and all
    execution is single-threaded.

    Processes follow the paper's crash-recovery lifecycle (§2.1): a process
    is {e up} or {e down}; crashing erases all volatile state (the handler
    closure and every pending timer) and loses messages that arrive while
    down; recovery re-runs the process behaviour, which must rebuild its
    state from {!Storage}. Incarnation numbers guard against stale timers
    and model the boot counter a real system keeps.

    Every step (one dispatched event) ends by writing the WAL tail of
    the stores it may have touched ({!Storage.flush}): a frame is
    delivered only after the step that sent it reached the file, as on
    the live runtime.

    The engine is polymorphic in the wire message type ['m]; protocol
    layers are composed by wrapping messages with {!map_io}. *)

type time = int
(** Simulated microseconds since the start of the run. *)

(** Handle of a volatile timer armed by [io.after]. *)
module Timer : sig
  type t

  val cancel : t -> unit
  (** Stop the timer: its thunk never runs. O(1); a no-op once it fired
      or was cancelled. The live runtime drops a cancelled timer before
      it computes its next wait, so it wakes no loop pass; the simulator
      still dispatches its event at the due time, as a no-op, so event
      order, {!events_processed} and the clock do not move. *)

  val pending : t -> bool
  (** Neither fired nor cancelled yet. *)

  val none : t
  (** A handle that is never pending: the initial value of a timer
      field. *)

  val make : (unit -> unit) -> t
  (** A pending timer running the thunk (for [io] implementations). *)

  val fire : t -> bool
  (** Run the thunk if the timer is pending, and say whether it ran; the
      timer is no longer pending afterwards (for [io] implementations). *)
end

(** The environment handed to a process behaviour — the only way a protocol
    can affect the world. One fresh ['m io] per incarnation. *)
type 'm io = {
  self : int;  (** this process's identity, [0 .. n-1] *)
  n : int;  (** number of processes in the system *)
  group : int;
      (** broadcast group (shard) this environment serves; the engine
          always hands out group 0, and the shard mux rebinds it (with
          {!Storage.scoped} / {!Metrics.scoped} views) per inner group *)
  incarnation : int;  (** 0 on first boot, +1 per recovery *)
  now : unit -> time;  (** current simulated time *)
  send : int -> 'm -> unit;  (** unreliable point-to-point send (§3.1) *)
  multisend : 'm -> unit;  (** unreliable send to all, including self *)
  after : time -> (unit -> unit) -> Timer.t;
      (** volatile timer: run the thunk after the given delay unless this
          incarnation has crashed by then or the returned handle was
          cancelled ({!Timer.cancel}) *)
  store : Storage.t;  (** stable storage, survives crashes *)
  rng : Abcast_util.Rng.t;  (** this process's private random stream *)
  metrics : Metrics.t;  (** shared measurement registry *)
  flight : Flight.t;
      (** this node's crash flight recorder. The engine hands out
          {!Flight.disabled} (recording is a no-op) unless [create] got a
          [flight] factory; the live runtime substitutes a real per-node
          ring so lifecycle events survive a SIGKILL next to the WAL. *)
  alarm : string -> unit;
      (** safety sentinel: the protocol calls this when an online audit
          detects a violated invariant (order divergence). The engine
          bumps an ["alarms"] counter (the protocol has already recorded
          a {!Flight.audit} event); the live runtime also
          dumps the flight recorder immediately so evidence survives. *)
}

val map_io : ('a -> 'b) -> 'b io -> 'a io
(** [map_io wrap io] narrows an environment to a sub-protocol whose
    messages embed into the parent's via [wrap]. Sends are wrapped; all
    other capabilities are shared. *)

type 'm behavior = 'm io -> src:int -> 'm -> unit
(** A process behaviour: run at every (re)start with a fresh [io], it
    initializes state (reading stable storage on recovery), may set timers,
    and returns the incoming-message handler for this incarnation. *)

type 'm t
(** A simulation instance. *)

val create :
  seed:int ->
  n:int ->
  ?net:Net.t ->
  ?msg_size:('m -> int) ->
  ?storage:(metrics:Metrics.t -> node:int -> Storage.t) ->
  ?flight:(node:int -> Flight.t) ->
  unit ->
  'm t
(** [create ~seed ~n ()] builds a simulation of [n] processes over a
    default {!Net} model. [msg_size] enables per-message byte accounting
    (counter ["net_bytes"]). [storage] overrides how each process's
    stable storage is built (default: memory-only) — pass a factory
    closing over a directory to run a simulation against the real WAL
    (the backend-equivalence sweep does).
    [flight] gives each process a real flight recorder (default:
    {!Flight.disabled}); recorders survive crash/recover like storage. *)

val n : 'm t -> int
val now : 'm t -> time
val metrics : 'm t -> Metrics.t
val network : 'm t -> Net.t
val storage : 'm t -> int -> Storage.t
(** Direct access to a process's stable storage (inspection/tests). *)

val flight : 'm t -> int -> Flight.t
(** A process's flight recorder ({!Flight.disabled} unless [create] got
    a [flight] factory). *)

val set_behavior : 'm t -> int -> 'm behavior -> unit
(** Install the program text of a process. Must be set before [start]. *)

val start : 'm t -> int -> unit
(** Boot a process (first start or recovery): bumps its incarnation,
    records a {!Flight.boot} event ([a] = the new incarnation) on its
    flight recorder, marks it up, runs its behaviour. No-op if already up. *)

val start_all : 'm t -> unit
(** [start] every process, in id order. *)

val crash : 'm t -> int -> unit
(** Crash a process now: volatile state and pending timers are lost;
    messages arriving while it is down are dropped. No-op if down. *)

val recover : 'm t -> int -> unit
(** Alias for {!start}, for readability at call sites. *)

val is_up : 'm t -> int -> bool
val incarnation : 'm t -> int -> int
(** Current incarnation (-1 if never started). *)

val at : 'm t -> time -> (unit -> unit) -> unit
(** Schedule an arbitrary action at an absolute time (fault injection,
    workload arrival, assertions mid-run). *)

val after : 'm t -> time -> (unit -> unit) -> unit
(** Schedule an action relative to now. *)

val events_processed : 'm t -> int
(** Number of events dispatched so far (work measure for recovery cost). *)

val run : ?until:time -> ?max_events:int -> 'm t -> unit
(** Process events in time order until the heap is empty, the time limit
    is passed, or [max_events] (default 100 million) events have been
    dispatched. When [until] is given, time is advanced to exactly [until]
    on return. *)

val run_until :
  'm t -> ?until:time -> ?max_events:int -> pred:(unit -> bool) -> unit -> bool
(** Like {!run} but also stops as soon as [pred ()] holds (checked after
    each event). Returns whether the predicate held at stop time. *)
