(** Crash-recovery consensus #1: single-decree Paxos.

    Classic Synod with all three roles (proposer, acceptor, learner) at
    every process. It is naturally suited to the crash-recovery model: an
    acceptor logs its [(promised, accepted)] state before answering, so a
    recovered acceptor never contradicts its past promises, and quorum
    intersection carries decided values across crashes.

    Liveness is delegated to the Ω oracle: a process that believes
    itself leader starts its first ballot as soon as it proposes and
    retries a higher one on a timer; any other process sends a [Query]
    on that timer instead (so a late process still learns decisions from
    decided peers). Safety never depends on Ω.

    Stable-storage writes per instance at one process: the proposal
    (1 write — the one the atomic broadcast layer piggybacks on),
    acceptor-state updates, and the decision (1 write). *)

(** Wire messages, exposed for white-box tests and tracing. *)
type msg =
  | Prepare of { b : int }  (** phase 1a *)
  | Promise of { b : int; accepted : (int * Consensus_intf.value) option }
      (** phase 1b *)
  | Reject of { b : int }  (** nack carrying the blocking promise *)
  | Accept of { b : int; v : Consensus_intf.value }  (** phase 2a *)
  | Accepted of { b : int }  (** phase 2b *)
  | Query  (** "anyone decided?" probe from a non-leader *)
  | Decide of { v : Consensus_intf.value }  (** decision announcement *)

include Consensus_intf.S with type msg := msg

val retry_period : int ref
(** Base period in simulated µs (default 8_000) between a leader's
    ballot retries and a non-leader's [Query] probes; each wait adds a
    random jitter of up to half of it. It never delays a leader's first
    ballot, which starts at propose. A non-leader's first probe waits
    1 µs to a quarter of it. Tests shrink it to accelerate convergence. *)
