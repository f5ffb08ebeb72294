(** Crash flight recorder: fixed-capacity ring buffer of structured
    lifecycle events, dumped next to the WAL as a post-mortem black box.

    Each node owns one recorder. {!record} costs eight array stores and
    allocates nothing, so it is safe on the allocation-free live frame
    path; when the ring wraps the oldest events are overwritten and
    {!dropped} counts them. Dumps are atomic (tmp + rename + fsync) in
    the Wire-framed ["ABFL"] v1 format, merged offline by
    [abcast-sim doctor]. A recorder with [cap = 0] (see {!disabled})
    never records and never allocates. *)

type t

val create : cap:int -> unit -> t
(** Ring of [cap] events. [cap = 0] disables recording entirely. *)

val disabled : t
(** A shared always-off recorder ([cap = 0]); {!record} on it is a
    no-op, so it is safe to share between nodes. *)

val enabled : t -> bool
val capacity : t -> int

val record :
  t ->
  time:int ->
  node:int ->
  group:int ->
  boot:int ->
  stage:int ->
  trace:int ->
  a:int ->
  b:int ->
  unit
(** Append one event, overwriting the oldest when full. Allocation-free;
    no-op when [cap = 0]. [time] is µs; [trace] is the packed
    originating trace context (0 = unsampled); [a]/[b] are
    stage-specific operands (consensus instance, duration µs, ...). *)

(** {2 Stage codes} — dense ints, stable across versions (dumps persist
    them). *)

val submit : int  (** service accepted a client request *)

val bcast : int  (** protocol A-broadcast of a payload *)

val rx_ring : int  (** first sight of a payload via ring forwarding *)

val rx_gossip : int  (** first sight of a payload via gossip/pull *)

val propose : int  (** payload included in consensus proposal [a] *)

val decide : int  (** consensus instance [a] decided *)

val apply : int  (** payload A-delivered to the application *)

val wal_append : int  (** WAL tail written ([a] = µs) *)

val wal_fsync : int  (** WAL fsync completed ([a] = µs) *)

val ack : int  (** session layer acked a request to its waiter *)

val lease : int  (** read-index lease marker applied *)

val stjump : int  (** state transfer jumped [a] → [b] instances *)

val boot : int  (** node (re)started with boot counter [a] *)

val chain : int
(** audit chain grid point: delivery position [a] has chain hash [b] —
    positions are grid-aligned so doctor can compare across nodes *)

val audit : int
(** audit sentinel tripped: certificate from node [b] mismatched our
    chain at position [a] — a live total-order violation *)

val replay : int  (** storage replay done: [a] records in [b] µs *)

val replay_done : int
(** protocol recovery replay done: [a] consensus rounds in [b] µs *)

val caught_up : int
(** first post-recovery delivery: length [a], [b] µs after boot *)

val suspect : int
(** failure detector: peer [a] (epoch [b]) stopped being trusted *)

val trust : int
(** failure detector: peer [a] (epoch [b]) is trusted again *)

val loop_died : int  (** live event loop raised; the node went down *)

val stage_name : int -> string

(** {2 Reading} *)

type event = {
  e_time : int;
  e_node : int;
  e_group : int;
  e_boot : int;
  e_stage : int;
  e_trace : int;
  e_a : int;
  e_b : int;
}

val total : t -> int
(** Events ever recorded (including overwritten ones). *)

val stored : t -> int
val dropped : t -> int

val events : t -> event list
(** Stored events, oldest first. Allocates; not for hot paths. *)

val pp_event : Format.formatter -> event -> unit
(** One timeline line: time, node, boot, group, stage name, operands and
    (when sampled) the trace id. *)

val clear : t -> unit

(** {2 Dump / load} *)

type dump = { d_dropped : int; d_events : event list }

val dump_string : t -> string
val load_string : string -> (dump, string) result

val dump_to_file : t -> string -> unit
(** Atomic (tmp + rename) durable write of {!dump_string}. *)

val load_file : string -> (dump, string) result
