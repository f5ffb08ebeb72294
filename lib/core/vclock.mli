(** Checkpoint vector clocks (paper §5.2).

    A vector clock summarizes which messages are logically contained in an
    application checkpoint: for each [(origin, boot)] stream it records the
    highest delivered sequence number. The summary is exact because the
    protocol delivers each stream's messages in sequence order — an
    invariant that follows from gossip carrying whole [Unordered] sets (a
    gossip that carries seq [s] of a stream also carries every smaller
    not-yet-agreed seq), and that {!Agreed} asserts at every append. *)

type t

val empty : t

val contains : t -> Payload.id -> bool
(** Whether the identified message is covered by the clock. *)

val fits : t -> Payload.id -> bool
(** Whether [add] would succeed: the id is exactly the next sequence
    number of its stream. [false] both for already-covered ids and for
    ids that would leave a gap — callers that need to tell the two apart
    combine with {!contains}. *)

val add : t -> Payload.id -> t
(** Record a delivery. Raises [Invalid_argument] if it would run a stream
    backwards or leave a gap (protocol-invariant violation). *)

val next_seq : t -> origin:int -> boot:int -> int
(** First sequence number of the [(origin, boot)] stream {e not} covered
    by the clock (0 for an unknown stream). Digest-based gossip uses this
    to enumerate exactly the candidate gaps below a peer's advertised
    per-stream maximum. *)

val streams : t -> ((int * int) * int) list
(** [((origin, boot), max_seq)] entries, sorted (for tests/inspection). *)

val of_streams : ((int * int) * int) list -> t
(** Inverse of {!streams} (wire decoding, test fixtures). Performs no
    FIFO validation — the entries are trusted to describe per-stream
    maxima, exactly what {!streams} produced on the encoding side. *)

(** {2 Wire codec} — the {!streams} entries as a list of varint
    triples. *)

val write : Abcast_util.Wire.writer -> t -> unit

val read : Abcast_util.Wire.reader -> t
