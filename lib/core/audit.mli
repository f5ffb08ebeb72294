(** Online order audit: per-group incremental delivery hash chains and
    the compact certificates that carry them on gossip frames.

    The chain is an order-sensitive polynomial fold of each delivered
    payload identity: two processes that A-delivered the same sequence
    hold equal chain values at every position. Swapping two adjacent
    deliveries whose ids differ in one field by 0 < |d| < 2^61 changes
    every value from that point on; any other transposition is caught
    with the collision resistance of a 62-bit hash. A
    node periodically piggybacks [(boot, len, chain)] on gossip; a
    receiver whose {!window} still covers [len] compares hashes, and a
    mismatch is a live total-order violation (the sentinel). Folding is
    allocation-free, so it is safe on the zero-alloc live path. *)

val empty : int
(** Chain value of the empty sequence. *)

val mix : int -> Payload.id -> int
(** [mix h id] folds one delivered payload identity into chain [h].
    Order-sensitive; result is non-negative. Allocation-free. *)

(** {2 Chain window} — last [cap] chain values, indexed by position. *)

type window

val window : cap:int -> unit -> window
(** Remember the chain value at the last [cap] delivery positions.
    [cap = 0] disables the window ({!hash_at} always [None]). *)

val note : window -> pos:int -> hash:int -> unit
(** Record chain value [hash] after delivery position [pos] (1-based
    total length). Positions are expected consecutive; a discontinuity
    (recovery, state transfer) restarts the window at [pos].
    Allocation-free. *)

val hash_at : window -> pos:int -> int option
(** Chain value after position [pos], if still covered. O(1). *)

val reset : window -> unit

(** {2 Certificates} *)

type cert = {
  c_boot : int;  (** sender's boot epoch, for post-mortem attribution *)
  c_len : int;  (** delivery position the hash covers *)
  c_hash : int;  (** chain value after [c_len] deliveries *)
}

val write_cert : Abcast_util.Wire.writer -> cert -> unit
val read_cert : Abcast_util.Wire.reader -> cert

type verdict = [ `Match | `Mismatch | `Unknown ]

val check : window -> cert -> verdict
(** Compare a received certificate against our own window. [`Unknown]
    when the certificate's position is outside the window — no evidence
    either way. [`Mismatch] is a total-order violation. *)
