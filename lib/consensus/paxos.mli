(** Crash-recovery consensus #1: Paxos with one phase 1 per leader term.

    Classic Synod with all three roles (proposer, acceptor, learner) at
    every process. It is naturally suited to the crash-recovery model: an
    acceptor logs its [(promised, accepted)] state before answering, so a
    recovered acceptor never contradicts its past promises, and quorum
    intersection carries decided values across crashes.

    Phase 1 runs once per leader {e term}, not once per instance (the
    Multi-Paxos shape of Ring Paxos, PAPERS.md). Each acceptor keeps, next
    to its per-instance state, one durable node-wide promise that no
    instance accepts a ballot below. A [Prepare b] for instance [k] is
    promised iff [b] is above [k]'s own promise and at least the node-wide
    one; the [Promise] lists every instance above [k] the acceptor has
    accepted a value in. When a majority has promised, the leader holds a
    term: every instance above [k] that no promise listed goes straight
    to [Accept b] while the leader stays the Ω leader. Listed instances
    run the full Synod at [b], and a [Reject] above [b] ends the term; a
    new one opens at the next proposal, so an idle cluster runs no
    consensus. The term is volatile ({!node}, one per incarnation); a
    fresh ballot is logged as the leader's own node-wide promise before
    its [Prepare] leaves, so no incarnation reuses a ballot.

    Liveness is delegated to the Ω oracle: a process that believes
    itself leader starts its ballot as soon as it proposes and retries a
    higher one on a timer; any other process sends a [Query] on that
    timer instead (so a late process still learns decisions from decided
    peers). Safety never depends on Ω.

    A proposer accepts its own value, logged, before its [Accept]
    leaves. At n <= 3 that makes a follower's acceptance the second of a
    majority: it sends its [Accepted] and decides, and nobody sends
    [Decide] in a failure-free instance. Above three nodes only the
    leader that gathered the [Accepted] majority multicasts [Decide]
    (n-1 frames per failure-free instance). A learner does not echo the
    decision, nobody answers the node that told it, and the leader
    ignores the late [Promise]s and [Accepted]s its [Accept] or
    [Decide] covered. A decided process answers every [Query], so a
    lost [Accept] or [Decide] heals at the prober's next probe.

    Stable-storage writes per instance at one process, inside a term:
    the proposal (1 write — the one the atomic broadcast layer piggybacks
    on), one acceptor-state update, and the decision (1 write). Opening a
    term adds a promise write per acceptor for its first instance, plus
    the node-wide promise. *)

(** Wire messages, exposed for white-box tests. *)
type msg =
  | Prepare of { b : int }  (** phase 1a *)
  | Promise of {
      b : int;
      accepted : (int * Consensus_intf.value) option;
      above : (int * int) list;
    }
      (** phase 1b: this instance's accepted [(ballot, value)], and the
          [(instance, ballot)] of every higher instance accepted here *)
  | Reject of { b : int }  (** nack carrying the blocking promise *)
  | Accept of { b : int; v : Consensus_intf.value }  (** phase 2a *)
  | Accepted of { b : int }  (** phase 2b *)
  | Query  (** "anyone decided?" probe from a non-leader *)
  | Decide of { v : Consensus_intf.value }
      (** decision announcement (by the phase-2 leader) or probe answer *)

include Consensus_intf.S with type msg := msg

val accepted : Abcast_sim.Storage.t -> instance:int -> (int * Consensus_intf.value) option
(** The [(ballot, value)] an acceptor has durably accepted in an
    instance, read from its stable storage. *)

val retry_period : int
(** Base period in simulated µs (8_000) between a leader's
    ballot retries and a non-leader's [Query] probes; each wait adds a
    random jitter of up to half of it. It never delays a leader's first
    ballot, which starts at propose. A non-leader's first probe waits
    1 µs to a quarter of it. *)
