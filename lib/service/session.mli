(** Replicated session/reply table.

    The deterministic state machine behind the service layer: applied to
    the totally ordered payload sequence of one broadcast group, it
    deduplicates client requests by [(session, seq)], caches the latest
    reply per session, applies inner {!Abcast_apps.Kv} commands, and
    tracks the leader view the read-index protocol consults. Determinism
    is the contract — no clocks, no randomness — so every replica of a
    group (including one recovering from a WAL checkpoint plus Agreed
    tail replay) makes identical dedup and eviction decisions. *)

type t

(** What one {!apply} did, for the live front-end to act on (complete a
    waiter, grant a lease). Purely informational: the machine state
    transition is already done. *)
type event =
  | Request_done of {
      session : int;
      seq : int;
      status : Abcast_core.Envelope.status;
      reply : string;
      index : int;
    }
  | Marker of {
      kind : [ `Claim | `Lease ];
      node : int;
      stamp : int;
      granted : bool;  (** [Lease] only renews if [node] already leads *)
      index : int;  (** apply index of the marker *)
    }
  | Foreign of { index : int }
      (** non-service payload, applied straight to the store *)

val create : ?max_sessions:int -> unit -> t
(** Fresh machine. [max_sessions] (default 4096) caps the session table:
    beyond it the least-recently-touched session (LRU by apply index —
    deterministic across replicas) is evicted, truncating its cached
    reply. *)

val apply : t -> string -> event
(** Apply one delivered payload's bytes. A [Request] at [seq <=] the
    session's floor is {e not} re-applied: equal to the floor returns
    the cached reply ([Cached]), below it returns [Gap]. *)

val kv : t -> Abcast_apps.Kv.state
val get : t -> string -> string option

val leader : t -> int
(** Current leader view ([-1] before any [Claim]). *)

val applied : t -> int
(** Apply index: payloads applied so far (checkpoint-carried). *)

val floor : t -> int -> int option
(** Highest applied seq of a session, if the session is still resident. *)

val cached_reply : t -> int -> string option

val session_count : t -> int

val sessions : t -> (int * int) list
(** Resident [(session, floor)] pairs, sorted. *)

val hooks : t -> Abcast_core.Protocol.app
(** Checkpoint/install hooks (Wire codec, sorted sessions — equal states
    encode identically) for registering the machine as protocol app
    state, so it survives Agreed-prefix compaction and rides state
    transfer. *)

val encode : t -> string
val install : t -> string -> unit

val digest : t -> string
(** Fingerprint of the full machine state (store, sessions, leader,
    index); equal digests across replicas witness convergence. *)
