module Engine = Abcast_sim.Engine
module Payload = Abcast_core.Payload

type msg = Data of Payload.t

type t = {
  io : msg Engine.io;
  deliver : Payload.t -> unit;
  seen : (Payload.id, unit) Hashtbl.t;
  mutable seq : int;
  mutable count : int;
}

let create io ~deliver = { io; deliver; seen = Hashtbl.create 64; seq = 0; count = 0 }

let accept t (p : Payload.t) =
  if not (Hashtbl.mem t.seen p.id) then begin
    Hashtbl.add t.seen p.id ();
    (* Relay before delivering: first reception forwards to all. *)
    t.io.multisend (Data p);
    t.count <- t.count + 1;
    t.deliver p
  end

let broadcast t data =
  let id =
    { Payload.origin = t.io.self; boot = t.io.incarnation; seq = t.seq }
  in
  t.seq <- t.seq + 1;
  let p = Payload.make id data in
  accept t p;
  id

let handle t ~src:_ (Data p) = accept t p

let delivered_count t = t.count
