(** Numbered consensus instances with idempotent [propose]/[decided].

    The paper's broadcast layer runs one consensus per round [k]
    (§4.1–§4.2). This functor wraps any {!Consensus_intf.S} implementation
    into an instance manager that:

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
      which the broadcast layer treats as a lag signal and resolves via
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
    on_decide:(int -> Consensus_intf.value -> unit) ->
    on_lag:(int -> unit) ->
    on_behind:(src:int -> unit) ->
    t
  (** [on_decide k v] fires when instance [k] decides at this incarnation;
      [on_lag floor] fires when a peer reports truncation below [floor];
      [on_behind ~src] fires when {e this} process detects that peer [src]
      is asking about an instance we truncated — the broadcast layer must
      then push it a state transfer, or the peer could block forever
      waiting for a consensus that no quorum can still run (§5.3). *)

  val propose : t -> int -> Consensus_intf.value -> unit
  (** Idempotent propose to instance [k] (logs the initial value on first
      call — paper §3.2). Ignored below the truncation floor. *)

  val proposal : t -> int -> Consensus_intf.value option
  (** Logged initial value of instance [k]: the live instance's, else a
      read of stable storage (creating no instance). *)

  val decision : t -> int -> Consensus_intf.value option
  (** Decided value of instance [k]: the live instance's, else a read of
      stable storage (creating no instance). *)

  val probe : t -> int -> unit
  (** Ask the peers for instance [k]'s decision now
      ({!Consensus_intf.S.probe}). Ignored below the truncation floor and
      once [k] is decided here. *)

  val handle : t -> src:int -> msg -> unit

  val logged_proposal_instances : t -> int list
  (** All instance numbers with a logged proposal, ascending — the replay
      procedure's iteration domain. *)

  val floor : t -> int
  (** Lowest instance whose consensus state is still retained (0 if no
      truncation ever happened). *)

  val retire : t -> int -> unit
  (** [retire t k] settles the instances below [k] here: their pending
      timers no longer fire. The broadcast layer calls it when its commit
      cursor jumps forward (state transfer, or recovery adopting a
      checkpoint at round [k]); {!truncate_below} retires too. *)

  val truncate_below : t -> int -> unit
  (** Discard all stable consensus state of instances [< k] and raise the
      floor: the floor record first, then one range record over the
      instance keys in [\[floor, k)] (see DESIGN.md "Log retirement by
      watermark"). Only call once the corresponding prefix is covered by
      a durable checkpoint. *)
end
