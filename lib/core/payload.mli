(** Application messages and their identities.

    The paper (§2.2) makes messages unique by tagging them with
    [(local sequence number, sender identity)]. In the crash-recovery
    model a sender's volatile sequence counter restarts after a crash, so
    the identity also carries the sender's boot (incarnation) number — the
    counter a real system keeps in stable storage and our engine provides
    as [io.incarnation]. Identities order lexicographically by
    [(origin, boot, seq)]; this is also the protocol's "predetermined
    deterministic rule" for placing the messages of one decided batch. *)

type id = { origin : int; boot : int; seq : int }

val compare_id : id -> id -> int

val equal_id : id -> id -> bool

module Id_tbl : Hashtbl.S with type key = id
(** Hash tables keyed by identity, with int-only hashing and equality —
    the per-message tables probe these on every add/deliver/pull. *)

val pp_id : Format.formatter -> id -> unit
(** Rendered as ["p<origin>.<boot>.<seq>"]. *)

type t = { id : id; data : string; trace : Trace_ctx.t }
(** A message offered to [A-broadcast]. [trace] is the sampled trace
    context minted at broadcast time ({!Trace_ctx.none} for the
    unsampled majority); it rides every hop so downstream nodes stamp
    flight events with the originating broadcast's id. It never
    influences identity, ordering, or delivery. *)

val make : ?trace:Trace_ctx.t -> id -> string -> t

val compare : t -> t -> int
(** Orders by {!compare_id} (payload bytes never influence order). *)

val sort_batch : t list -> t list
(** Sort a batch by identity and drop every later duplicate of an id —
    the deterministic insertion rule of Fig. 2, for arbitrary input. The
    protocol's own batches come out of {!Unordered} already in this
    order. *)

(** {2 Wire codec} — three zigzag varints for the identity, then the
    data length shifted left one with the trace-presence flag in the low
    bit, the raw payload bytes, and (iff flagged) the trace context's
    (node, stamp) uvarint pair. Unsampled payloads cost zero extra bytes
    over the flag bit. *)

val write_id : Abcast_util.Wire.writer -> id -> unit

val read_id : Abcast_util.Wire.reader -> id

val write : Abcast_util.Wire.writer -> t -> unit

val read : Abcast_util.Wire.reader -> t

val read_list : Abcast_util.Wire.reader -> t list
(** Count-prefixed payloads — [Wire.read_list read] specialised to a
    direct-call loop (batches and gossip bodies are the decode hot
    path), with the same hostile-count guard. *)
