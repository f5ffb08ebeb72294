(** Heartbeat failure detector for the crash-recovery model: a
    communication-efficient Ω.

    The paper's transformation is failure-detector-agnostic, but the
    consensus building block needs one (§3.5), and it asks for one
    thing: the {!leader}. This module provides the unbounded-output
    style of Aguilera–Chen–Toueg: alongside the trust test it exports an
    {e epoch} per process (its incarnation count, carried in every
    heartbeat), so observers can distinguish a stable process from one
    that oscillates — without predicting the future behaviour of bad
    processes.

    Liveness is implicit: {e every} frame received from a peer — of any
    layer of the stack — refreshes its trust ({!heard}), and a process is
    {e trusted} if some frame from it arrived within [timeout]. Only the
    leader keeps links alive:

    - every node beats each peer once at boot (announcing its epoch);
    - a node that names itself leader runs the beat tick: every
      [period], a peer gets a [Beat] if no frame went to it for
      [period]/2 (sends are seen through {!watch});
    - a follower runs no tick: one one-shot timer fires just after its
      leader would time out, and either re-arms (the leader was heard
      since) or suspects it and acts on Ω's new output;
    - a recovered node ([incarnation > 0]) also beats a peer whose last
      [Beat] is [timeout]/2 old, because a [Beat] is the only frame that
      carries the epoch. A fresh node needs no such Beat: a peer not
      heard from yet ranks as epoch 0.

    The {!leader} oracle (Ω) returns the trusted process with the
    lexicographically smallest [(epoch, id)]: once the system
    stabilizes, every good process converges to the same good leader,
    because good processes' epochs stop growing while oscillating bad
    processes' epochs grow without bound. A follower does not track its
    fellow followers: it may report them suspected while they are
    silent, which Ω's output never depends on. *)

type msg = Beat of { epoch : int }
(** Wire messages (heartbeats) — exposed for white-box tests (codec
    round-trips). *)

val write_msg : Abcast_util.Wire.writer -> msg -> unit
(** Wire encoding (one varint: the sender's epoch). *)

val read_msg : Abcast_util.Wire.reader -> msg
(** @raise Abcast_util.Wire.Error on malformed input. *)

type t
(** Volatile detector state of one incarnation. *)

val create : ?period:int -> ?timeout:int -> msg Abcast_sim.Engine.io -> t
(** Start the detector: beats every peer immediately (announcing the new
    epoch), then leads or follows as Ω says. [period] defaults to
    2_000 µs, [timeout] to 5 × [period]. A fresh incarnation initially
    trusts everyone (it has no evidence of failure yet). A follower
    records its watched leader's flips as
    {!Abcast_sim.Flight.suspect} or {!Abcast_sim.Flight.trust} events
    ([a] = peer, [b] = its epoch): a suspicion when its timer or a
    {!leader} call finds the leader silent, a trust when it watches a
    node it had suspected.
    Every Beat sent counts in the ["tx.fd"] counter. *)

val watch : t -> 'm Abcast_sim.Engine.io -> 'm Abcast_sim.Engine.io
(** [watch t io] is [io] with its sends noted by the detector: a peer
    that the leader sent any frame in the last [period]/2 gets no Beat
    at the tick. The stack sends every non-Beat frame through it. *)

val heard : t -> src:int -> unit
(** Note that a frame (of any layer) arrived from [src] now. *)

val handle : t -> src:int -> msg -> unit
(** Feed an incoming heartbeat: {!heard} plus its epoch. *)

val trusted : t -> int -> bool
(** Whether some frame from a process arrived within [timeout] (always
    true for self). A follower hears its fellow followers only through
    their protocol frames. *)

val suspects : t -> int list
(** Currently suspected process ids, ascending. *)

val epoch : t -> int -> int
(** Highest epoch observed from a process (own incarnation for self,
    -1 if never heard). *)

val leader : t -> int
(** The Ω oracle output: trusted process minimizing [(epoch, id)]. A
    call also acts on it: a node that names itself starts the beat tick,
    and a follower starts watching the node it names. *)
