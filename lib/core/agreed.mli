(** The [Agreed] queue — the protocol's representation of the delivery
    sequence (paper §4.1, redefined in §5.2).

    A delivery sequence is an optional {e base} (an application checkpoint
    that logically contains a prefix of the sequence, with its vector
    clock) followed by an explicit {e tail} of messages. The basic
    protocol only ever grows the tail; the alternative protocol
    periodically {!compact}s the tail into the base and can {!adopt} a
    more advanced replica's queue wholesale (state transfer, §5.3).

    All operations are idempotent in the paper's sense: appending a
    message that is already contained is a no-op. *)

type t
(** Mutable queue state of one process. *)

(** Immutable snapshot — what gets checkpointed to stable storage and
    shipped in [state] messages. *)
type repr = {
  base_app : string option;
      (** serialized application state covering the base, if compacted *)
  base_len : int;  (** number of messages logically inside the base *)
  base_chain : int;  (** {!Audit} chain value after [base_len] deliveries *)
  vc : Vclock.t;  (** every message contained (base and tail) *)
  tail : Payload.t list;  (** explicit suffix, in delivery order *)
}

val create : unit -> t
(** Empty queue: no base, empty tail. *)

val contains : t -> Payload.id -> bool
(** Whether a message is already in the delivery sequence. *)

val append : t -> Payload.t -> bool
(** Append one message; returns [false] (and does nothing) if already
    contained. Raises if the per-stream FIFO invariant would break. *)

val try_append : t -> Payload.t -> [ `Appended | `Dup | `Gap ]
(** Like {!append} but never raises: [`Gap] when the message's stream
    predecessor has not been delivered yet (the message must stay in
    [Unordered] and be re-proposed later). Pipelined decision batches
    can legitimately contain gaps — a competing proposal may win an
    earlier instance without carrying a stream prefix the loser counted
    on — so appliers skip deterministically instead of asserting. *)

val total_len : t -> int
(** Length of the whole logical sequence (base + tail). *)

val chain : t -> int
(** {!Audit} delivery hash chain after the whole sequence — maintained
    incrementally (allocation-free) at every append, carried across
    {!compact}/{!snapshot}/{!restore}/{!adopt}. *)

val chain_at : t -> int -> int option
(** Chain value after the first [pos] deliveries, if still remembered:
    the frontier and the base are always known; intermediate positions
    come from a fixed window of the last 1024 (O(1) lookup). *)

val tail : t -> Payload.t list
(** The explicit tail, in delivery order. *)

val vc : t -> Vclock.t

val compact : t -> app_blob:string -> unit
(** Fold the entire current sequence into a base checkpoint whose
    application state is [app_blob]; the tail becomes empty. *)

val snapshot : t -> repr

val suffix_snapshot : t -> from_len:int -> repr option
(** A snapshot containing only the messages beyond the first [from_len] —
    the §5.3 optimization of shipping a late process only what it is
    missing (after Wuu–Bernstein / lazy replication). [None] when the
    requested prefix reaches into the compacted base (the full snapshot
    with its application checkpoint must be sent instead) or exceeds the
    queue. The receiver adopts it exactly like a full snapshot: its own
    sequence already covers the synthetic base. *)

val restore : repr -> t
(** Rebuild a queue from a snapshot (recovery). *)

val adopt :
  t -> repr -> [ `Deliver of Payload.t list | `Install of string option * Payload.t list ]
(** State transfer: advance this queue to the (at least as long) donor
    snapshot. Returns what the upper layer must do to catch up:
    [`Deliver msgs] if our current sequence already covers the donor's
    base — the missing suffix is appended to our own state (a trimmed
    donor repr carries no prefix, so it must not replace ours) — or
    [`Install (app, msgs)] if it does not (reset the application to the
    donor's base checkpoint, then deliver the donor tail).
    If the donor is not ahead, returns [`Deliver []] and changes
    nothing. *)

(** {2 Wire codec for {!repr}} — what [state] messages and checkpoint
    slots ship. *)

val write_repr : Abcast_util.Wire.writer -> repr -> unit

val read_repr : Abcast_util.Wire.reader -> repr
