(** The sequencer's [Unordered] set (§4.2, Fig. 2): the payloads a
    process holds but has not seen ordered. Each fact is held once: the
    payloads by identity, one record per [(origin, boot)] stream (the
    highest seq ever admitted, a bound below which no seq is held, and
    the covered watermark), and one coverage map, id → the instance this
    process proposed it in, plus the ids parked after a gap skip.
    Identity order is read off the stream records, never sorted.
    Nothing here touches storage: logging the set is {!Stable}'s, the
    window walk {!Protocol}'s.

    Callers keep one invariant: an id leaves the set ({!remove},
    {!drop_if}) only once the delivery clock [vc] covers it, so every
    stream's watermark is monotone within an incarnation. *)

type t

val create : unit -> t
val mem : t -> Payload.id -> bool
val find_opt : t -> Payload.id -> Payload.t option
val count : t -> int

val add : t -> vc:Vclock.t -> Payload.t -> unit
(** Admit a payload unless held; its stream's record is created at the
    stream's first admission. *)

val remove : t -> Payload.id -> unit
(** Drop a delivered id from the set and from the coverage map. *)

val drop_if : t -> (Payload.id -> bool) -> unit
(** {!remove} every held or covered id the predicate accepts. *)

val to_list : t -> Payload.t list
(** The set in identity order: the streams by [(origin, boot)], each
    probed for every seq from the lowest it may hold up to the highest
    it admitted. Nothing is sorted or kept between calls; the call
    raises each stream's lower bound to its lowest held seq. *)

val summary : t -> (int * int * int) list
(** [(origin, boot, max seq ever admitted)] per stream: the digest. A
    seq delivered since its admission stays advertised. *)

val missing :
  t -> vc:Vclock.t -> cap:int -> (int * int * int) list -> Payload.id list
(** At most [cap] ids of a peer's digest that this process neither
    delivered nor holds, scanning the summary in order and each stream
    up from its watermark; last found first. A stream never held here
    stores nothing: its watermark is [next_seq vc - 1]. *)

val cover : t -> int -> Payload.id -> unit
(** Note that this process proposed the id at the given instance. *)

val park : t -> Payload.id -> unit
(** Note that a decided instance skipped this held id as a gap: a
    smaller seq of its stream is neither delivered nor held. Proposing
    it again before that seq arrives would only skip it again, one
    consensus instance per round, on an otherwise idle cluster. *)

val uncovered : t -> vc:Vclock.t -> committed:int -> Payload.t list
(** {!to_list} without the ids covered at an instance [>= committed]:
    a commit or a cursor jump uncovers ids without touching the map.
    A parked id is left out too, until every smaller seq of its stream
    is delivered (in [vc]) or held. One walk, as {!to_list}'s, filters
    each held id as it visits it. *)

val covered_count : t -> int
(** Entries in the coverage map, committed instances included. *)
