(** Crash-recovery consensus #2: rotating-coordinator protocol.

    A Chandra–Toueg ◇S-style protocol adapted to the crash-recovery model
    in the spirit of Hurfin–Mostéfaoui–Raynal (paper's reference [11]):
    rounds [r = 0, 1, …] with coordinator [r mod n]; in each round
    processes send their timestamped estimate to the coordinator, which
    picks the estimate with the highest timestamp and proposes it;
    processes {e log} the adopted estimate before acknowledging, so a
    majority of acks "locks" the value across crashes (quorum
    intersection then forces every later coordinator to re-propose it).

    Suspicion is implicit: a process that waits too long in a round simply
    moves to the next round (timeouts escalate with the round number), so
    this implementation needs no leader oracle at all — together with
    {!Paxos} it demonstrates the paper's claim that the broadcast layer is
    bound to no particular failure-detection mechanism.

    Only the coordinator that gathered the acks multicasts [Decide]; a
    learner does not echo it, nobody answers the node that told it the
    decision, and the coordinator ignores late [Ack]s and [Estimate]s of
    the round its [Decide] closed — n-1 [Decide] frames per failure-free
    instance. A member that lost the [Decide] learns it at its next
    round, from the decided peer its [Estimate] (or [Query]) reaches,
    or at once when the broadcast layer probes. *)

(** Wire messages, exposed for white-box tests. *)
type msg =
  | Estimate of { r : int; v : Consensus_intf.value; ts : int }
      (** phase 1: member's estimate to round [r]'s coordinator *)
  | Proposal of { r : int; v : Consensus_intf.value }
      (** phase 2: coordinator's pick *)
  | Ack of { r : int }  (** phase 3: locked and acknowledged *)
  | Query  (** "anyone decided?" probe *)
  | Decide of { v : Consensus_intf.value }
      (** decision announcement (by the coordinator) or answer *)

include Consensus_intf.S with type msg := msg

val round_timeout : int
(** Base round timeout in simulated µs (12_000). The effective
    timeout grows linearly with the round number, capped at 10x. *)
