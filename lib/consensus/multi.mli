(** The ordered sequence of numbered consensus instances.

    The paper's broadcast layer runs one consensus per round [k]
    (§4.1–§4.2): propose to instance [k], wait for its decision, apply
    it, then [k <- k + 1]. This functor wraps any {!Consensus_intf.S}
    implementation into the owner of that sequence and its {e cursor}
    [k], which:

    - routes wire messages [(k, m)] to instance [k], creating instances on
      demand (a recovering or late process may receive traffic for
      instances it never started — the primitives must be idempotent);
    - answers [proposal]/[decision] queries from the "log of proposed
      and agreed values kept internally by Consensus" that the paper's
      replay procedure parses (§4.2 Recovery): each instance restores
      and logs both values, so a live instance answers for the log;
    - supports {e truncation} of instances below a floor once the
      broadcast layer has checkpointed them (§5.1 line (c) / §5.2). A peer
      asking about a truncated instance is told [Truncated { floor }],
      which the asker hears as a peer past its cursor and resolves via
      state transfer (§5.3). *)

module Make (C : Consensus_intf.S) : sig
  type msg =
    | Inst of int * C.msg  (** message of instance [k] *)
    | Truncated of { floor : int }
        (** "instances below [floor] are gone here; catch up by state" *)

  val write_msg : Abcast_util.Wire.writer -> msg -> unit
  (** Wire encoding: instance number + the wrapped implementation's
      {!Consensus_intf.S.write_msg}. *)

  val read_msg : Abcast_util.Wire.reader -> msg
  (** @raise Abcast_util.Wire.Error on malformed input. *)

  type t

  val create :
    msg Abcast_sim.Engine.io ->
    leader:Abcast_fd.Omega.t ->
    on_ready:(unit -> unit) ->
    on_behind:(src:int -> unit) ->
    t
  (** A manager with its cursor at 0. [on_ready ()] fires when the
      cursor's instance decides at this incarnation (every decision
      records a [decide] flight event); [on_behind ~src] fires when
      {e this} process detects that peer [src] is asking about an instance
      we truncated — the broadcast layer must then push it a state
      transfer, or the peer could block forever waiting for a consensus
      that no quorum can still run (§5.3). *)

  val propose : t -> int -> Consensus_intf.value -> unit
  (** Idempotent propose to instance [k] (logs the initial value on first
      call — paper §3.2). Ignored below the truncation floor. *)

  val proposal : t -> int -> Consensus_intf.value option
  (** Logged initial value of instance [k]: the live instance's, else a
      read of stable storage (creating no instance). *)

  val decision : t -> int -> Consensus_intf.value option
  (** Decided value of instance [k]: the live instance's, else a read of
      stable storage (creating no instance). *)

  val handle : t -> src:int -> msg -> unit

  val logged_proposal_instances : t -> (int * Consensus_intf.value) list
  (** Logged proposals of the undecided instances at or above the cursor,
      ascending: what the replay procedure re-proposes. *)

  val cursor : t -> int
  (** The round counter [k]: the next instance the broadcast layer
      applies. *)

  val seek : t -> int -> unit
  (** [seek t k] moves the cursor up to [k], never back (an applied
      decision, a state-transfer jump, a checkpoint adopted at recovery;
      {!truncate_below} seeks too). Instances below it run no timers. *)

  val hear : t -> int -> unit
  (** A peer reports its cursor at [k]. *)

  val behind : t -> bool
  (** A peer has reported a cursor past ours. *)

  val chase : t -> unit
  (** When {!behind}, ask the peers for the cursor's decision
      ({!Consensus_intf.S.probe}), once per cursor instance; not below the
      floor or once it is decided here. *)

  val floor : t -> int
  (** Lowest instance whose consensus state is still retained (0 if no
      truncation ever happened). *)

  val truncate_below : t -> int -> unit
  (** Discard all stable consensus state of instances [< k] and raise the
      floor: the floor record first, then one range record over the
      instance keys in [\[floor, k)] (see DESIGN.md "Log retirement by
      watermark"). Only call once the corresponding prefix is covered by
      a durable checkpoint. *)
end
