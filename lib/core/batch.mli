(** Encoding of message batches as consensus values.

    Each round of the protocol proposes its [Unordered] set to consensus
    as one opaque value (paper §4.1); this module fixes the bijection.
    Encoding sorts and deduplicates by identity, so equal sets encode to
    equal byte strings regardless of insertion order — which matters for
    the idempotent re-propose after recovery (property P4). *)

val encode : Payload.t list -> Abcast_consensus.Consensus_intf.value

type writers
(** A proposer's reusable encode buffers. Never share one between nodes:
    the nodes of a live process are threads of one domain. *)

val writers : unit -> writers

val encode_sorted_bounded :
  writers ->
  max_bytes:int ->
  Payload.t list ->
  Abcast_consensus.Consensus_intf.value * Payload.t list
(** [encode_sorted_bounded w ~max_bytes payloads] encodes the longest
    prefix of the (sorted, duplicate-free) list whose payload bodies fit
    in [max_bytes] — always at least one payload — and returns it with
    the value. The rest stays in [Unordered] for a later instance.
    Because the cut respects identity order, the prefix is contiguous
    per stream, which keeps pipelined decisions appendable in FIFO
    order. The encoding of a fully-included list is byte-identical to
    {!encode}'s. *)

val decode : Abcast_consensus.Consensus_intf.value -> Payload.t list
(** Inverse of {!encode}; the result is sorted by identity. Only for
    values produced by {!encode} (our own proposals and decisions read
    back from stable storage or carried inside already-validated
    consensus messages). @raise Abcast_util.Wire.Error on malformation. *)

val decode_opt : Abcast_consensus.Consensus_intf.value -> Payload.t list option
(** Total variant of {!decode} for values of uncertain provenance. *)

val size : Abcast_consensus.Consensus_intf.value -> int
(** Encoded size in bytes (for logging/throughput accounting). *)
