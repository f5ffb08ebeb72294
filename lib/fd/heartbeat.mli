(** Heartbeat failure detector for the crash-recovery model.

    The paper's transformation is failure-detector-agnostic, but the
    consensus building block needs one (§3.5). This module provides the
    unbounded-output style of Aguilera–Chen–Toueg: alongside a trust list
    it exports an {e epoch} per process (its incarnation count, carried in
    every heartbeat), so observers can distinguish a stable process from
    one that oscillates — without predicting the future behaviour of bad
    processes.

    Each process multicasts [Beat { epoch }] every [period]; a process is
    {e trusted} if a beat from it arrived within [timeout]. The {!leader}
    oracle (Ω) returns the trusted process with the lexicographically
    smallest [(epoch, id)]: once the system stabilizes, every good process
    converges to the same good leader, because good processes' epochs stop
    growing while oscillating bad processes' epochs grow without bound. *)

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
(** Start the detector: begins beating immediately. [period] defaults to
    2_000 simulated µs, [timeout] to 5 × [period]. A fresh incarnation
    initially trusts everyone (it has no evidence of failure yet). *)

val handle : t -> src:int -> msg -> unit
(** Feed an incoming heartbeat. *)

val trusted : t -> int -> bool
(** Whether a process is currently trusted. *)

val suspects : t -> int list
(** Currently suspected process ids, ascending. *)

val epoch : t -> int -> int
(** Highest epoch observed from a process (own incarnation for self,
    -1 if never heard). *)

val leader : t -> int
(** The Ω oracle output: trusted process minimizing [(epoch, id)]. *)
