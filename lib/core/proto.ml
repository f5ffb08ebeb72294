(** First-class protocol stacks.

    Everything above the broadcast layer (harness, experiments, baselines,
    example applications) manipulates a protocol through this uniform
    signature, with the wire message type held abstract. A value of type
    {!t} packages one fully configured stack — protocol variant, consensus
    implementation, tuning parameters — ready to be instantiated on each
    process of a simulation; see {!Factory} for ready-made builders.

    A stack runs [shards] independent broadcast groups per process (one
    for every plain stack, several under {!Factory.sharded}), and its
    surface is indexed by group: {!S.broadcast} takes [?group] and every
    reading takes a group number. The whole-stack readings that harnesses
    report are derived from the per-group ones below the signature. *)

module type S = sig
  val name : string
  (** Identifier used in traces and experiment tables,
      e.g. ["basic/paxos"]. *)

  type msg
  (** Wire message type of the whole stack. *)

  val msg_size : msg -> int
  (** Exact serialized size, for byte accounting. *)

  val write_msg : Abcast_util.Wire.writer -> msg -> unit
  (** Append the wire encoding — composable with caller framing (the
      live runtime prepends a type byte and the sender id). *)

  val read_msg : Abcast_util.Wire.reader -> msg
  (** @raise Abcast_util.Wire.Error on malformed input. Callers reading
      untrusted bytes must catch it (or use {!decode_msg}). *)

  val encode_msg : msg -> string
  (** Whole-value encode. *)

  val decode_msg : string -> msg option
  (** Total whole-value decode: [None] on any malformation. *)

  val shards : int
  (** Number of independent broadcast groups this stack multiplexes.
      [1] for every plain stack; [> 1] only for {!Factory.sharded}
      stacks. Groups are numbered [0 .. shards - 1]. *)

  val msg_group : msg -> int
  (** Which group a wire message belongs to ([0] on single-group
      stacks). Lets harnesses inject group-targeted faults — drop every
      frame of one group and watch the others keep delivering. *)

  type t
  (** Per-process protocol state (one value per incarnation). *)

  val create :
    msg Abcast_sim.Engine.io -> deliver:(group:int -> Payload.t -> unit) -> t
  (** Boot or recover the process; [deliver] is the A-deliver upcall,
      tagged with the delivering group ([~group:0] always on
      single-group stacks). *)

  val handler : t -> src:int -> msg -> unit
  (** Incoming-message dispatcher (the engine behaviour). *)

  val broadcast :
    t -> ?on_agreed:(Payload.id -> unit) -> ?group:int -> string -> Payload.id
  (** [A-broadcast] into [group]. Without [?group] a sharded stack routes
      the payload by its route function (hash of the data by default)
      and a plain stack uses group 0.
      @raise Invalid_argument if [group] is out of range. *)

  val broadcast_blocks : bool
  (** Whether [A-broadcast] conceptually blocks its caller until the
      message reaches the [Agreed] queue (basic protocol, §4.2) rather
      than returning as soon as the [Unordered] set is logged
      (alternative protocol with early return, §5.4). Workload generators
      use this to model when a closed-loop client may continue. *)

  (** {2 Per-group readings}

      Each reads one broadcast group of the process and raises
      [Invalid_argument] on an out-of-range group (see {!check_group}). *)

  val round : t -> int -> int
  (** Consensus rounds executed. *)

  val delivered_count : t -> int -> int
  (** Payloads A-delivered. *)

  val delivered_tail : t -> int -> Payload.t list
  (** Uncompacted delivered suffix, in delivery order. *)

  val delivery_vc : t -> int -> Vclock.t
  (** Compaction-proof delivery summary. *)

  val unordered_count : t -> int -> int
end

type t = (module S)

let name (module P : S) = P.name

(** The bounds check every implementation of {!S} applies to a group
    argument. @raise Invalid_argument unless [0 <= g < shards]. *)
let check_group ~shards g =
  if g < 0 || g >= shards then
    invalid_arg (Printf.sprintf "group %d out of range (S=%d)" g shards)

(** {2 Whole-stack readings}

    Each reads group [g] of a process when given [~group:g] and the
    whole stack otherwise: counts are summed over groups, tails
    concatenated in group order. Payload ids and delivery streams are
    keyed per group and collide across groups, so there is no merged
    clock: the whole-stack {!delivery_vc} is group 0's. On a
    single-group stack both readings coincide. *)

let sum ~shards read ?group p =
  match group with
  | Some g -> read p g
  | None ->
    let acc = ref 0 in
    for g = 0 to shards - 1 do
      acc := !acc + read p g
    done;
    !acc

let round (type s) (module P : S with type t = s) ?group (p : s) =
  sum ~shards:P.shards P.round ?group p

let delivered_count (type s) (module P : S with type t = s) ?group (p : s) =
  sum ~shards:P.shards P.delivered_count ?group p

let unordered_count (type s) (module P : S with type t = s) ?group (p : s) =
  sum ~shards:P.shards P.unordered_count ?group p

let delivered_tail (type s) (module P : S with type t = s) ?group (p : s) =
  match group with
  | Some g -> P.delivered_tail p g
  | None -> List.concat (List.init P.shards (P.delivered_tail p))

let delivery_vc (type s) (module P : S with type t = s) ?(group = 0) (p : s) =
  P.delivery_vc p group
