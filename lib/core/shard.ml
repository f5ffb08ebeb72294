(* Shard multiplexer: runs S independent instances of a single-group
   stack on every process and packages them as one {!Proto.S}.

   Composition over threading: instead of teaching the protocol state
   machines about groups, each group gets its own fully isolated inner
   instance — own consensus pipeline, own gossip/ring tasks, own
   [Unordered]/[Agreed] state — behind a per-group {!Engine.io} view:

   - sends wrap the inner message as [(group, msg)], so one socket (or
     one simulated link) carries every group and the receiving mux
     dispatches on the uvarint group tag without touching the payload;
   - stable storage is a {!Storage.scoped} view keyed ["g<g>/"] — one
     WAL holds group-tagged records for all groups and a recovering
     process replays them in a single pass;
   - metrics are a {!Metrics.scoped} view with the same prefix, so every
     interned counter/series carries its group label and per-shard tail
     latency stays visible;
   - the rng is split per group so no group perturbs another's random
     stream.

   Faults therefore isolate by construction: nothing except the shared
   transport is common to two groups, which the cross-shard isolation
   suite checks by dropping all of one group's frames and watching the
   others deliver. *)

module Engine = Abcast_sim.Engine
module Metrics = Abcast_sim.Metrics
module Storage = Abcast_sim.Storage
module Rng = Abcast_util.Rng
module Wire = Abcast_util.Wire

let default_route data = Hashtbl.hash data land max_int

let mux ?route ~shards (inner : Proto.t) : Proto.t =
  if shards <= 0 then invalid_arg "Shard.mux: shards must be positive";
  if shards = 1 then inner
  else begin
    let module I = (val inner : Proto.S) in
    let route = Option.value route ~default:default_route in
    (module struct
      let name = Printf.sprintf "%s/x%d" I.name shards
      let shards = shards

      type msg = int * I.msg

      let msg_group (g, _) = g
      let msg_size (g, m) = Group_id.size g + I.msg_size m

      let write_msg w (g, m) =
        Group_id.write w g;
        I.write_msg w m

      let read_msg r =
        let g = Group_id.read r in
        if g >= shards then Wire.error "group %d out of range (S=%d)" g shards;
        (g, I.read_msg r)

      let encode_msg m = Wire.to_string write_msg m
      let decode_msg s = Wire.of_string_opt read_msg s

      type t = I.t array

      let at t g =
        Proto.check_group ~shards g;
        t.(g)

      let group_io (io : msg Engine.io) g : I.msg Engine.io =
        let p = Group_id.prefix g in
        let narrowed = Engine.map_io (fun m -> (g, m)) io in
        {
          narrowed with
          group = g;
          store = Storage.scoped io.store ~prefix:p;
          metrics = Metrics.scoped io.metrics p;
          rng = Rng.split io.rng;
        }

      let create io ~deliver =
        Array.init shards (fun g ->
            I.create (group_io io g) ~deliver:(fun ~group:_ p ->
                deliver ~group:g p))

      let handler t ~src (g, m) = I.handler t.(g) ~src m

      let broadcast t ?on_agreed ?group data =
        let g = match group with Some g -> g | None -> route data mod shards in
        I.broadcast (at t g) ?on_agreed data

      let broadcast_blocks = I.broadcast_blocks

      (* Each inner instance is a single-group stack: its group 0. *)
      let round t g = I.round (at t g) 0
      let delivered_count t g = I.delivered_count (at t g) 0
      let delivered_tail t g = I.delivered_tail (at t g) 0
      let delivery_vc t g = I.delivery_vc (at t g) 0
      let unordered_count t g = I.unordered_count (at t g) 0
    end : Proto.S)
  end
