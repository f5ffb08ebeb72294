module Engine = Abcast_sim.Engine
module Storage = Abcast_sim.Storage
module Metrics = Abcast_sim.Metrics

let volatile_io (io : 'm Engine.io) =
  (* A fresh store per incarnation, accounted against a metrics registry
     nobody reads: writes become volatile and invisible — the crash-stop
     protocol semantically performs no logging. *)
  let store = Storage.create ~metrics:(Metrics.create ()) ~node:io.self () in
  { io with store }

let stack ?(consensus = `Paxos) () : Abcast_core.Proto.t =
  let (module S) =
    Abcast_core.Factory.make ~consensus Abcast_core.Protocol.paper_basic
  in
  let cname =
    match consensus with
    | `Paxos -> Abcast_consensus.Paxos.name
    | `Coord -> Abcast_consensus.Coord.name
  in
  (module struct
    include S

    let name = "ct-stop/" ^ cname

    let create io ~deliver = S.create (volatile_io io) ~deliver
  end : Abcast_core.Proto.S)
