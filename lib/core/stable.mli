(** What the broadcast layer keeps on stable storage (§5.1–§5.5), and the
    rules of state transfer. Knows no consensus type: the caller passes
    its log truncation in.

    Keys (layer ["abcast"]): ["ab/checkpoint"] holds the [(k, Agreed)]
    record; ["ab/unordered"] the whole [Unordered] set under full logging;
    ["ab/u/<origin>.<boot>.<seq>"] one own payload under per-item logging,
    the seq zero-padded to 12 digits so that a stream's delivered prefix
    is one key range. Item keys written unpadded, before that rule, are
    restored but never retired. *)

type app = { checkpoint : unit -> string; install : string -> unit }
(** Application-level checkpoint hooks (§5.2, Fig. 5): [checkpoint] is
    the [A-checkpoint] upcall, [install] resets the application to a
    checkpoint (recovery and state transfer). *)

val checkpoint_key : string
val encode_checkpoint : int * Agreed.repr -> string
val decode_checkpoint : string -> (int * Agreed.repr) option

type t

val create :
  Abcast_sim.Storage.t ->
  self:int ->
  boot:int ->
  app:app option ->
  early_return:bool ->
  incremental:bool ->
  t
(** Picks how [Unordered] is logged, once: not at all without
    [early_return], per item with [incremental], else the full set. *)

val log_add : t -> Unordered.t -> Payload.t -> unit
(** Log an own A-broadcast, already in the set. *)

val restore : t -> Agreed.t -> Unordered.t -> unit
(** Put every logged payload that [Agreed] lacks back in the set. *)

val checkpoint :
  t -> k:int -> Agreed.t -> Unordered.t -> truncate:(int -> unit) -> unit
(** Unless neither [k] nor the delivery length moved since this
    incarnation's last checkpoint: compact [Agreed] with [app], write
    the record, [truncate k], then retire the log (per item: each own
    stream's delivered prefix; full set: rewritten if it shrank). *)

val persist_jump : t -> k:int -> Agreed.t -> unit
(** Write the record after a state-transfer jump, so that replay never
    restarts below the donor's floor. *)

val last_checkpoint : t -> (int * Agreed.t) option
(** The stored record as a queue, with its app state installed. *)

val snapshot_for : Agreed.t -> for_len:int option -> Agreed.repr
(** The State to send: the suffix past the recipient's length, or the
    full snapshot if that reaches into the compacted base. *)

val adoptable :
  delta:int option ->
  committed:int ->
  Agreed.t ->
  k:int ->
  floor:int ->
  Agreed.repr ->
  bool
(** Adopt a State from round [k] if Δ is set, the donor is ahead by more
    than Δ or we are below its [floor], and our sequence covers a
    trimmed snapshot's base. *)

val adopt : t -> Agreed.t -> Agreed.repr -> Payload.t list
(** Adopt a State, installing the donor's app state if our sequence
    does not cover its base; returns what to deliver. *)
