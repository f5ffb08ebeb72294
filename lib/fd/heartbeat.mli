(** Heartbeat failure detector for the crash-recovery model.

    The paper's transformation is failure-detector-agnostic, but the
    consensus building block needs one (§3.5). This module provides the
    unbounded-output style of Aguilera–Chen–Toueg: alongside a trust list
    it exports an {e epoch} per process (its incarnation count, carried in
    every heartbeat), so observers can distinguish a stable process from
    one that oscillates — without predicting the future behaviour of bad
    processes.

    Liveness is implicit: {e every} frame received from a peer — of any
    layer of the stack — refreshes its trust ({!heard}), and a process is
    {e trusted} if some frame from it arrived within [timeout]. A
    [Beat { epoch }] therefore only fills silence: at each beat tick
    (every [period]) a peer gets a Beat if no frame went to it for
    [period]/2 — so no link is silent for much more than 1.5 periods —
    or if its last Beat is [timeout]/2 old. The second rule exists
    because a Beat is the only frame that carries the sender's epoch: a
    recovered process's new epoch reaches every peer within one timeout
    window even while other traffic never pauses. Sends are seen
    through {!watch}. A busy link thus carries few Beats and an idle
    one still beats every period. The {!leader} oracle (Ω) returns the
    trusted process with the lexicographically smallest [(epoch, id)],
    a process not heard from yet counting as epoch 0: once the system
    stabilizes, every good process converges to the same good leader,
    because good processes' epochs stop growing while oscillating bad
    processes' epochs grow without bound. *)

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
    epoch), then ticks every [period]. [period] defaults to 2_000 µs,
    [timeout] to 5 × [period]. A fresh incarnation initially trusts
    everyone (it has no evidence of failure yet). At
    each tick a peer whose trusted status flipped since the previous
    tick is recorded as a {!Abcast_sim.Flight.suspect} or
    {!Abcast_sim.Flight.trust} event ([a] = peer, [b] = its epoch). *)

val watch : t -> 'm Abcast_sim.Engine.io -> 'm Abcast_sim.Engine.io
(** [watch t io] is [io] with its sends noted by the detector: a peer
    that was sent any frame in the last [period]/2 gets no Beat at the
    tick. The stack sends every non-Beat frame through it. *)

val heard : t -> src:int -> unit
(** Note that a frame (of any layer) arrived from [src] now. *)

val handle : t -> src:int -> msg -> unit
(** Feed an incoming heartbeat: {!heard} plus its epoch. *)

val trusted : t -> int -> bool
(** Whether a process is currently trusted. *)

val suspects : t -> int list
(** Currently suspected process ids, ascending. *)

val epoch : t -> int -> int
(** Highest epoch observed from a process (own incarnation for self,
    -1 if never heard). *)

val leader : t -> int
(** The Ω oracle output: trusted process minimizing [(epoch, id)]. *)
