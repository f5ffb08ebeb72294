(** The paper's Atomic Broadcast protocols, as a functor over the
    Consensus building block.

    [Make (C)] instantiates the whole stack over one consensus
    implementation — the paper's central design point is that [C] is a
    black box ({!Abcast_consensus.Consensus_intf.S}); swapping
    {!Abcast_consensus.Paxos} for {!Abcast_consensus.Coord} changes
    nothing above this line (experiment E8).

    The paper's two protocols are two settings of one {!config} record:

    - {!paper_basic} — Fig. 2: minimal logging. The only stable-storage
      write above consensus is… none: the proposal log is the consensus's
      own initial-value write (§4.3). Recovery replays every logged round.
    - {!paper_alternative} — Figs. 3–5: periodic [(k, Agreed)] checkpoints
      (§5.1), application-level checkpoints with vector clocks bounding
      log size (§5.2), state transfer with tunable Δ (§5.3), early-return
      [A-broadcast] that logs the [Unordered] set for batching (§5.4), and
      incremental logging (§5.5).

    Both satisfy Validity, Integrity, Termination and Total Order (§2.2);
    the test suite checks these over adversarial crash/recovery
    schedules. *)

type app = Stable.app = { checkpoint : unit -> string; install : string -> unit }
(** Application-level checkpoint hooks (§5.2); see {!Stable.app}. *)

type config = {
  gossip_period : int;
      (** simulated µs between gossip ticks (§4.2) *)
  checkpoint_period : int option;
      (** µs between [(k, Agreed)] checkpoints (§5.1); [None] never
          checkpoints (the basic protocol). An unmoved node writes
          nothing ({!Stable.checkpoint}). *)
  delta : int option;
      (** the §5.3 state-transfer threshold Δ in rounds; [None] disables
          state transfer (the basic protocol). See {!Stable.adoptable}
          and {!Stable.snapshot_for}. *)
  early_return : bool;
      (** log [Unordered] on [A-broadcast] and complete immediately
          (§5.4); [false] blocks until the message reaches [Agreed].
          With [incremental], the two pick {!Stable}'s logging mode. *)
  incremental : bool;
      (** log only the new part of [Unordered] (§5.5) *)
  paranoid_log : bool;
      (** the naive-logging strawman of E1/E6: checkpoint after every
          round *)
  window : int;
      (** consensus instances that may run concurrently as a pipeline
          ([1] is the paper's strictly sequential sequencer). Each
          proposal carries a disjoint identity-sorted slice of the
          backlog cut at 24_000 payload bytes; decisions may arrive out
          of order but deliveries happen strictly in instance order, and
          a batch entry whose stream predecessor is missing is skipped
          deterministically and re-proposed. *)
  gossip_full_every : int;
      (** every this-many-th gossip tick multisends the full [Unordered]
          set; the others send a {!Make.Digest} summary from which each
          receiver pulls what it misses with {!Make.Need}. The full
          subsequence keeps the paper's §4.2 liveness argument
          unchanged; [1] is Fig. 2/3 verbatim (full set every tick). *)
  dissemination : [ `Gossip | `Ring ];
      (** [`Ring] forwards payload batches to the successor process only
          (coalesced for 400 µs); the digest/pull gossip stays as the
          repair path after crashes *)
  trace_sample : int;
      (** [0] = off; [k] samples every [k]-th local broadcast for causal
          tracing: the payload carries a {!Trace_ctx} across every hop
          and each node stamps flight events with it
          (see {!Abcast_sim.Flight}) *)
  audit : bool;
      (** piggyback an {!Audit.cert} order certificate on every gossip
          and digest; a mismatch against the receiver's own delivery
          hash chain trips the ["audit_diverged"] sentinel (an
          [io.alarm], a flight event and a metric) *)
}
(** The protocol's tuning, shared by every functor instantiation. Build
    one from a preset: [{ paper_alternative with window = 4 }]. *)

val paper_basic : config
(** Fig. 2: no checkpoints, no state transfer, blocking [A-broadcast],
    3 ms gossip with digests and a full set every 8th tick, window 1,
    audit on, tracing off. *)

val paper_alternative : config
(** Figs. 3–5: {!paper_basic} plus 50 ms checkpoints, Δ = 4, early
    return and incremental logging. *)

val naive : config
(** {!paper_alternative} with a checkpoint after every round and full
    (non-incremental) [Unordered] re-logging — the E1/E6 strawman. *)

val throughput : config
(** {!paper_alternative} with ring dissemination, a window of 4 and the
    gossip slowed to repair duty (10 ms ticks, full set every 32nd) —
    the preset behind E18, the service layer and the live benchmark. *)

module Make (C : Abcast_consensus.Consensus_intf.S) : sig
  module M : module type of Abcast_consensus.Multi.Make (C)

  (** Wire messages of the whole stack: protocol gossip and state
      transfer, plus encapsulated consensus and failure-detector
      traffic. *)
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
            every [gossip_full_every]-th tick and as the reply to a
            {!Need} pull. [cert] optionally piggybacks
            the sender's order certificate (the online audit). *)
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
    | State of { k : int; floor : int; agreed : Agreed.repr }
        (** state transfer for late processes (§5.3); [floor] is the
            sender's consensus truncation floor — a receiver below it must
            adopt the state regardless of Δ, because the consensus
            instances it is missing can no longer be re-run *)
    | Cons of M.msg  (** consensus instance traffic *)
    | Fd of Abcast_fd.Heartbeat.msg  (** failure-detector heartbeats *)
    | Ring of { k : int; len : int; entries : (int * Payload.t) list }
        (** ring dissemination: payload batch forwarded to the successor
            process; each entry carries its remaining hop count (the
            origin starts at [n-1], so a payload circles the ring at most
            once). [k]/[len] piggyback the same round/length hints as
            {!Gossip}. A torn ring (crashed successor) degrades to the
            digest/pull gossip underneath — see DESIGN.md "Dissemination
            topologies". *)

  val write_msg : Abcast_util.Wire.writer -> msg -> unit
  (** Wire encoding of the whole stack's messages (one leading tag byte,
      then the constructor's fields — see DESIGN.md "Wire format"). *)

  val read_msg : Abcast_util.Wire.reader -> msg
  (** @raise Abcast_util.Wire.Error on malformed input. *)

  val encode_msg : msg -> string
  (** [Wire.to_string write_msg]. *)

  val decode_msg : string -> msg option
  (** Total decoder for untrusted input (network datagrams): [None] on
      any malformation, including trailing bytes. *)

  val msg_size : msg -> int
  (** Exact wire size in bytes, for the simulator engine's network
      accounting (one consumer per simulation; nodes never read it). A
      one-slot memo keyed by physical equality: a multisend
      re-accounting the same message for every destination serializes
      it once. *)

  type t
  (** Per-process protocol state (one value per incarnation). *)

  val create :
    ?app:app ->
    config ->
    msg Abcast_sim.Engine.io ->
    on_deliver:(Payload.t -> unit) ->
    t
  (** Boot or recover this process. Without checkpoints, recovery
      parses the consensus proposal/decision log, rebuilds [Agreed],
      re-delivers (calling [on_deliver] from the start — the upper
      layer is volatile too) and re-proposes the in-flight round
      (§4.2); with them it restores the last checkpoint first. Without
      [app], checkpoints store the full message sequence; with it, the
      prefix is replaced by the application state and the consensus log
      is truncated (§5.2).

      @raise Invalid_argument ["Protocol.config: <field> must be >= …"]
      unless [window >= 1], [gossip_full_every >= 1] and
      [trace_sample >= 0]. *)

  val handler : t -> src:int -> msg -> unit
  (** The incoming-message dispatcher to register as the engine
      behaviour of this process. *)

  val broadcast : t -> ?on_agreed:(Payload.id -> unit) -> string -> Payload.id
  (** [A-broadcast]: hand a message to the protocol. Returns its
      identity immediately; [on_agreed] fires when the message enters
      the [Agreed] queue locally (the basic protocol's completion
      point, §4.2). *)

  val round : t -> int
  (** Current consensus round [k_p]. *)

  val unordered_count : t -> int
  (** Size of the [Unordered] set. *)

  val delivered_count : t -> int
  (** Length of the whole delivery sequence (including any checkpointed
      prefix). *)

  val delivered_tail : t -> Payload.t list
  (** Explicit (non-checkpointed) suffix of the delivery sequence —
      [A-deliver-sequence()] (§2.2). *)

  val delivery_vc : t -> Vclock.t
  (** Vector clock covering every delivered message. *)

  val agreed_snapshot : t -> Agreed.repr
  (** Snapshot of the [Agreed] queue (tests, state inspection). *)

  val checkpoint_now : t -> unit
  (** Checkpoint immediately (tests and examples) — a no-op when
      nothing was committed or delivered since the last checkpoint. *)

  val floor : t -> int
  (** Consensus truncation floor (0 until a checkpoint truncates). *)
end
