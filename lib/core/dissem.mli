(** Dissemination: the gossip task of Fig. 2 (§4.2), apart from the
    sequencer. Every [period] a tick multisends the [Unordered] set, in
    full on every [full_every]-th tick and as a {!Digest} on the others;
    a receiver pulls what a digest shows it lacks with a {!Need} of at
    most 128 ids. Under [`Ring] a payload also circles the successor
    ring once, coalesced for 400 µs and cut at {!Batch.max_bytes}; the
    ticks stay as the repair path (DESIGN.md "Dissemination
    topologies"). With [audit] on, every tick carries the sender's
    order certificate ({!Audit.cert}). The layer knows nothing of
    consensus: it reads the round and [Agreed] through getters and
    hands each sender's progress back to the sequencer. *)

(** This layer's wire messages (DESIGN.md "Wire format"). *)
type msg =
  | Gossip of {
      k : int;
      len : int;
      unordered : Payload.t list;
      cert : Audit.cert option;
    }
      (** full-payload [gossip(k_p, Unordered_p)] multisend (§4.2); [len]
          is the sender's delivered-sequence length, letting a state-
          transfer donor ship only the missing suffix (§5.3). Sent on
          every [full_every]-th tick and as the reply to a {!Need} pull.
          [cert] optionally piggybacks the sender's order certificate
          (the online audit). *)
  | Digest of {
      k : int;
      len : int;
      summary : (int * int * int) list;
      cert : Audit.cert option;
    }
      (** compact gossip: [summary] lists, per [(origin, boot)] stream,
          the highest sequence number present in the sender's
          [Unordered] set. A receiver derives exactly the candidate
          entries it is missing and pulls them with {!Need} — see
          DESIGN.md for why the §4.2 liveness argument is preserved.
          [cert]: as in {!Gossip}. *)
  | Need of { ids : Payload.id list }
      (** pull request for specific unordered entries, answered with a
          payload {!Gossip} restricted to the ids the sender holds *)
  | Ring of { k : int; len : int; entries : (int * Payload.t) list }
      (** ring dissemination: payload batch forwarded to the successor
          process; each entry carries its remaining hop count (the
          origin starts at [n-1], so a payload circles the ring at most
          once). [k]/[len] piggyback the same round/length hints as
          {!Gossip}. *)

val write_msg : Abcast_util.Wire.writer -> msg -> unit
(** One leading tag byte (0, 1, 2 or 6), then the constructor's
    fields. *)

val read_tagged : int -> Abcast_util.Wire.reader -> msg
(** [read_tagged tag r] reads the fields of the message whose tag byte
    the stack's reader has consumed.
    @raise Abcast_util.Wire.Error on any other tag or malformed input. *)

type t
(** One incarnation's dissemination state. *)

val create :
  period:int ->
  full_every:int ->
  dissemination:[ `Gossip | `Ring ] ->
  audit:bool ->
  msg Abcast_sim.Engine.io ->
  Unordered.t ->
  agreed:(unit -> Agreed.t) ->
  cursor:(unit -> int) ->
  on_progress:(src:int -> k:int -> len:int -> unit) ->
  t
(** Arms no timer and sends nothing ({!start} does). [agreed] and
    [cursor] read the sequencer's current [Agreed] queue and round;
    [on_progress] hears every received {!Gossip}, {!Digest} and {!Ring}
    frame's [k] and [len], after its payloads were admitted. Counts
    ["rx.gossip"], ["rx.digest"], ["rx.need"], ["rx.ring"],
    ["gossip_msgs_sent"] and ["gossip_bytes_sent"] (every copy of every
    message this layer sends, wire bytes). *)

val start : t -> unit
(** Run the first gossip tick now; each tick arms the next. *)

val handle : t -> src:int -> msg -> unit
(** Admit a received message's payloads to [Unordered] (unless
    delivered), answer a {!Digest} with a {!Need} and a {!Need} with a
    {!Gossip}, check a certificate, forward ring entries. *)

val forward : t -> Payload.t -> unit
(** Send a payload this process just A-broadcast around the ring (a
    no-op under [`Gossip] or at n = 1). *)

val settle : t -> unit
(** Cancel a pending ring flush whose every entry is delivered. *)
