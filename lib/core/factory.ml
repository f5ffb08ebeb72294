type consensus = [ `Paxos | `Coord ]

type app_factory = node:int -> group:int -> Protocol.app * (Payload.t -> unit)

(* Stack names carry the variant and the topology so that benches and
   metrics comparing them stay distinguishable. *)
let name_of (c : Protocol.config) =
  let variant =
    if c.paranoid_log then "naive"
    else if c.checkpoint_period = None && c.delta = None then "basic"
    else "alt"
  in
  variant ^ match c.dissemination with `Ring -> "+ring" | `Gossip -> ""

let make ?(consensus = `Paxos) ?app_factory (cfg : Protocol.config) :
    Proto.t =
  let label = name_of cfg in
  let make (module C : Abcast_consensus.Consensus_intf.S) =
    let module P = Protocol.Make (C) in
    (module struct
      include P

      let name = label ^ "/" ^ C.name
      let shards = 1
      let msg_group _ = 0

      (* The one group's state, once [g] is checked to be group 0. *)
      let at t g =
        Proto.check_group ~shards g;
        t

      let broadcast t ?on_agreed ?(group = 0) data =
        P.broadcast (at t group) ?on_agreed data

      let broadcast_blocks = not cfg.early_return
      let round t g = P.round (at t g)
      let delivered_count t g = P.delivered_count (at t g)
      let delivered_tail t g = P.delivered_tail (at t g)
      let delivery_vc t g = P.delivery_vc (at t g)
      let unordered_count t g = P.unordered_count (at t g)

      let create (io : msg Abcast_sim.Engine.io) ~deliver =
        let deliver p = deliver ~group:0 p in
        (* The hook sees the io the shard mux rebinds per group, so one
           factory serves every group of a sharded stack and its
           checkpoints land under that group's scoped keys. *)
        match app_factory with
        | None -> P.create cfg io ~on_deliver:deliver
        | Some f ->
          let app, app_deliver = f ~node:io.self ~group:io.group in
          P.create ~app cfg io ~on_deliver:(fun p ->
              app_deliver p;
              deliver p)
    end : Proto.S)
  in
  match consensus with
  | `Paxos -> make (module Abcast_consensus.Paxos)
  | `Coord -> make (module Abcast_consensus.Coord)

let throughput ?(trace_sample = 0) ?group_app_factory () =
  make ?app_factory:group_app_factory { Protocol.throughput with trace_sample }

let sharded ?route ~shards stack = Shard.mux ?route ~shards stack
