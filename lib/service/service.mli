(** Client-facing service front on the live runtime.

    Wraps a {!Abcast_live.Runtime} cluster with the session layer: every
    node runs one {!Session} machine per broadcast group (registered as
    protocol app state, so it is checkpointed into the WAL, survives
    Agreed-prefix compaction and rides state transfer), and this module
    adds the volatile per-node front: waiters keyed by [(session, seq)],
    and the read-lease view of the read-index protocol ({!Lease_view}). Group routing is
    {!Abcast_apps.Partitioned_kv.shard_of_key} of the command's key, so a
    sharded service partitions the keyspace exactly like the PR-7
    partitioned store. *)

type t

type read_mode = Broadcast | Read_index
(** How linearizable reads are served: a [Get] through the total order,
    or a local read at the leaseholder. Stale reads are a per-op class
    in either mode ({!read_stale}). *)

val read_mode_of_string : string -> read_mode option
val read_mode_to_string : read_mode -> string

type config = {
  n : int;  (** processes *)
  shards : int;  (** broadcast groups (1 = unsharded) *)
  read_mode : read_mode;  (** how linearizable reads are served *)
  lease_ms : float;  (** read-index lease window *)
  max_sessions : int;  (** session-table cap per group replica *)
}

val default_config : config
(** [n = 3], [shards = 1], [Broadcast] reads, 200 ms lease, 4096
    sessions. *)

type read_result = Value of string | Not_ready

val create :
  ?base_port:int ->
  ?dir:string ->
  ?backend:[ `Wal ] ->
  ?fsync:Abcast_store.Durable.policy ->
  ?trace_sample:int ->
  ?flight_cap:int ->
  ?metrics_port:int ->
  ?metrics_interval:float ->
  ?metrics_out:string ->
  config ->
  t
(** Build the {!Abcast_core.Protocol.throughput} stack (sharded when
    [shards > 1]) with the session machines wired in as group app
    state, and start the live cluster. [dir]/[backend]/[fsync]/
    [flight_cap]/[metrics_port]/[metrics_interval]/[metrics_out] (JSONL
    snapshots with size-based rotation) as in
    {!Abcast_live.Runtime.create} (the Prometheus dump additionally
    carries this layer's [abcast_service_request_us] per-class
    histograms, labelled [class="write"|"lin"|"stale"] and by shard
    [group]); [trace_sample] (default 0, off) is the stack's
    [trace_sample]: every k-th broadcast carries a causal trace id,
    stamped into each node's flight recorder at every stage — including
    this layer's submit/ack/lease events. Call {!start} afterwards to
    begin lease maintenance (read-index mode only). *)

val start : t -> unit
(** In read-index mode: claim leadership for the current claimant
    (default node 0) on every group and start the renewal thread
    (a Lease — or Claim, when leadership was lost — per group every
    quarter lease window). No-op otherwise. *)

val submit :
  t ->
  node:int ->
  session:int ->
  seq:int ->
  cmd:string ->
  (Abcast_core.Envelope.status -> string -> unit) ->
  unit
(** Asynchronously submit one encoded {!Abcast_apps.Kv} command through
    the session layer at [node] (no-op if down — the caller's retry
    deadline covers it). The callback fires in the delivering node's
    thread when the request is applied {e and} ackable (in read-index
    mode only the leader in view acks); keep it short and non-blocking.
    Re-submitting the same [(session, seq)] replaces the waiter — the
    table dedups, so a retry of an applied request acks with the cached
    reply and is never applied twice. *)

val abandon : t -> node:int -> session:int -> seq:int -> key:string -> unit
(** Drop the waiter of a request being retried elsewhere. *)

val read_stale : t -> node:int -> key:string -> read_result
(** Local read of [node]'s replica — no ordering guarantee. Always
    [Value] (missing keys read as [""]). *)

val read_index : t -> node:int -> key:string -> read_result
(** Linearizable read without a broadcast: [Value] iff [node] holds a
    live lease for the key's group and every lease of another node that
    it has seen has expired ({!Lease_view.serves}); [Not_ready]
    otherwise (caller redirects to the claimant or retries). *)

val holds_lease : t -> node:int -> group:int -> bool
(** Whether {!read_index} at [node] would serve a key of [group] now. *)

val claim : t -> node:int -> unit
(** Make [node] the claimant and broadcast a Claim on every group —
    call on failover after crashing the previous claimant. The new
    leaseholder serves reads once its Claim has applied and the previous
    holder's last renewal it applied is a lease window old: on failover
    at most one window, on a new cluster at once. *)

val claimant : t -> int

val stop_maintenance : t -> unit
(** Stop the lease renewal thread (markers stop flowing — required
    before comparing replica digests, which include the apply index;
    {!Loadgen.audit} calls it).
    {!start} restarts it. *)

val runtime : t -> Abcast_live.Runtime.t
(** The underlying cluster, for crash/recover/metrics. *)

val config : t -> config

val key_group : t -> string -> int
(** Broadcast group serving a key (0 when unsharded) — the routing
    {!submit} applies to the command's key. *)

val observe_latency : t -> cls:string -> group:int -> float -> unit
(** Record one request latency sample (µs) under op class [cls]
    (["write"] / ["lin"] / ["stale"]) and [group]. The per-(class, group)
    histograms are appended to the runtime's Prometheus dump as
    [abcast_service_request_us{class=...,group=...}] — the load
    generator feeds this; embedders can too. Thread-safe. *)

(** {2 Verification accessors} — meaningful on a quiesced cluster. *)

val value : t -> node:int -> key:string -> string
val floor : t -> node:int -> session:int -> key:string -> int option
val applied : t -> node:int -> int
val digest : t -> node:int -> string

val shutdown : t -> unit
(** Stop lease maintenance and the whole cluster. *)
