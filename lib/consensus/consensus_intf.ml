(** Interface of the Consensus building block (paper §3.2, §3.4).

    The atomic broadcast layer uses consensus strictly as a black box
    through [propose]/[decision]/[on_decide] — the paper's [propose] and
    [decided] primitives. Implementations must solve Uniform Consensus in
    the crash-recovery model:

    - {e Termination}: every good process eventually decides;
    - {e Uniform Validity}: a decided value was proposed by some process;
    - {e Uniform Agreement}: no two processes (good or bad) decide
      differently.

    Idempotence contract (paper §4.1): [propose] may be re-invoked after a
    crash for an instance that already started or finished; the first
    logged proposal wins (property P4), and [decision] keeps answering the
    same value once decided (property P5).

    A process proposes by logging its initial value on stable storage
    (§3.2) — that write is the one the basic atomic broadcast protocol
    counts on as its only log operation. *)

type value = string
(** Proposed/decided values are opaque byte strings; the broadcast layer
    serializes message batches into them. *)

(** Stable-storage key schema shared by all implementations, so that the
    multi-instance manager and the replay procedure can enumerate logged
    proposals and decisions without knowing the implementation. *)
module Keys = struct
  let layer = "consensus"

  let prefix = "cons/"

  let inst k field = Printf.sprintf "cons/%09d/%s" k field

  let proposal k = inst k "proposal"

  let decision k = inst k "decision"

  (* Instance number embedded in a key produced by [inst], if any. *)
  let instance_of_key key =
    if String.length key >= 16 && String.sub key 0 5 = "cons/" then
      int_of_string_opt (String.sub key 5 9)
    else None

  let field_of_key key =
    if String.length key >= 16 && String.sub key 0 5 = "cons/" then
      Some (String.sub key 15 (String.length key - 15))
    else None
end

(** What one consensus implementation must provide. Instances are
    single-shot; numbering and routing is the job of {!Multi}. *)
module type S = sig
  val name : string
  (** Short identifier used in traces and experiment tables. *)

  type msg
  (** Wire messages of this implementation. *)

  val write_msg : Abcast_util.Wire.writer -> msg -> unit
  (** Binary wire encoding, composed into the enclosing stack's message
      codec (the whole datagram is framed by the outermost layer). *)

  val read_msg : Abcast_util.Wire.reader -> msg
  (** Inverse of {!write_msg}.
      @raise Abcast_util.Wire.Error on malformed input — the outermost
      decoder catches it and drops the datagram. *)

  type node
  (** State one process shares across all its instances, for one
      incarnation ([unit] when an implementation needs none). {!Multi}
      builds it once per incarnation and hands it to every {!create}. *)

  val node : _ Abcast_sim.Engine.io -> node
  (** Build the shared state, reading what earlier incarnations left in
      stable storage. *)

  type t
  (** One instance at one process (volatile part; the durable part lives
      in the process's stable storage under {!Keys.inst} [instance]). *)

  val create :
    msg Abcast_sim.Engine.io ->
    node:node ->
    instance:int ->
    leader:Abcast_fd.Omega.t ->
    on_decide:(value -> unit) ->
    t
  (** (Re)build the instance, reading any durable state left by previous
      incarnations. [on_decide] fires at most once per incarnation, when
      the decision first becomes known to this incarnation {e after}
      creation; an already-logged decision is reported through
      {!decision} instead. *)

  val propose : t -> value -> unit
  (** Idempotent propose. The first call logs the value (the paper's
      proposal log); re-proposals after recovery reuse the logged value
      regardless of the argument. *)

  val proposal : t -> value option
  (** The logged initial value, if this process ever proposed. Always
      equal to what stable storage holds under {!Keys.proposal}: [Multi]
      answers from the instance instead of the log. *)

  val decision : t -> value option
  (** The decided value, if known here. Always equal to what stable
      storage holds under {!Keys.decision}. *)

  val probe : t -> unit
  (** Ask the peers for the decision now, if it is not known here: the
      caller has evidence that it was reached elsewhere (the broadcast
      layer calls it when a peer's commit cursor is past the instance).
      A decided peer answers with its decision. *)

  val handle : t -> src:int -> msg -> unit
  (** Feed an incoming message. *)
end
