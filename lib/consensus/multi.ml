module Engine = Abcast_sim.Engine
module Storage = Abcast_sim.Storage
module Metrics = Abcast_sim.Metrics
module Flight = Abcast_sim.Flight
open Consensus_intf

let floor_key = "cons.floor"

let truncate_layer = "truncate"

module Make (C : Consensus_intf.S) = struct
  type msg = Inst of int * C.msg | Truncated of { floor : int }

  module Wire = Abcast_util.Wire

  let write_msg w = function
    | Inst (k, m) ->
      Wire.write_u8 w 0;
      Wire.write_varint w k;
      C.write_msg w m
    | Truncated { floor } ->
      Wire.write_u8 w 1;
      Wire.write_varint w floor

  let read_msg r =
    match Wire.read_u8 r with
    | 0 ->
      let k = Wire.read_varint r in
      let m = C.read_msg r in
      Inst (k, m)
    | 1 -> Truncated { floor = Wire.read_varint r }
    | t -> Wire.error "multi: bad message tag %d" t

  type t = {
    io : msg Engine.io;
    leader : Abcast_fd.Omega.t;
    on_ready : unit -> unit;
    on_behind : src:int -> unit;
    node : C.node; (* state the instances of this incarnation share *)
    instances : (int, C.t) Hashtbl.t;
    mutable floor : int;
    mutable cursor : int; (* the round counter [k]; no timers below it *)
    mutable heard : int; (* the highest cursor a peer has reported *)
    mutable probed : int; (* the last cursor instance [chase] probed *)
  }

  let create io ~leader ~on_ready ~on_behind =
    let floor =
      match Storage.read io.Engine.store floor_key with
      | Some s -> int_of_string s
      | None -> 0
    in
    {
      io;
      leader;
      on_ready;
      on_behind;
      node = C.node io;
      instances = Hashtbl.create 16;
      floor;
      cursor = 0;
      heard = 0;
      probed = -1;
    }

  let instance t k =
    match Hashtbl.find_opt t.instances k with
    | Some c -> c
    | None ->
      let io' =
        {
          (Engine.map_io (fun m -> Inst (k, m)) t.io) with
          after =
            (fun delay f ->
              t.io.after delay (fun () -> if k >= t.cursor then f ()));
        }
      in
      let created_at = t.io.now () in
      let c =
        C.create io' ~node:t.node ~instance:k ~leader:t.leader
          ~on_decide:(fun v ->
            (* instance lifetime on this node: from first local contact
               with instance [k] to its decision *)
            let now = t.io.now () in
            Metrics.observe t.io.metrics ~node:t.io.self "cons.instance_us"
              (float_of_int (now - created_at));
            Flight.record t.io.flight ~time:now ~node:t.io.self
              ~group:t.io.group ~boot:t.io.incarnation ~stage:Flight.decide
              ~trace:0 ~a:k ~b:(String.length v);
            if k = t.cursor then t.on_ready ())
      in
      Hashtbl.add t.instances k c;
      c

  let propose t k v =
    if k >= t.floor then C.propose (instance t k) v

  (* A live instance holds what the log holds for it: it restores both
     values at creation and logs each one as it sets it. Only an
     instance with no object here is read from the log, without
     creating one. *)
  let logged t k ~live ~key =
    match Hashtbl.find_opt t.instances k with
    | Some c -> live c
    | None -> Storage.read t.io.store (key k)

  let proposal t k = logged t k ~live:C.proposal ~key:Keys.proposal

  let decision t k = logged t k ~live:C.decision ~key:Keys.decision

  let cursor t = t.cursor

  let seek t k = if k > t.cursor then t.cursor <- k

  let hear t k = if k > t.heard then t.heard <- k

  let behind t = t.heard > t.cursor

  (* Only the node that completes an instance announces it, so a late or
     lost announcement would stall the cursor until its instance's retry
     tick. A peer past our cursor has decided the cursor's instance: ask
     for it at once, once per instance. *)
  let chase t =
    let k = t.cursor in
    if behind t && k <> t.probed then begin
      t.probed <- k;
      if k >= t.floor && decision t k = None then C.probe (instance t k)
    end

  let handle t ~src = function
    | Truncated { floor } -> hear t floor
    | Inst (k, m) ->
      if k < t.floor && decision t k = None then begin
        (* our own probe of an instance we truncated needs no answer *)
        if src <> t.io.self then begin
          t.io.send src (Truncated { floor = t.floor });
          t.on_behind ~src
        end
      end
      else C.handle (instance t k) ~src m

  let logged_proposal_instances t =
    Storage.keys_with_prefix t.io.store Keys.prefix
    |> List.filter_map (fun key ->
           match (Keys.field_of_key key, Keys.instance_of_key key) with
           | Some "proposal", Some k when k >= t.cursor && decision t k = None
             ->
             Option.map (fun v -> (k, v)) (proposal t k)
           | _ -> None)
    |> List.sort compare

  let floor t = t.floor

  (* The floor record goes first: any prefix of the log that holds the
     retirement also holds the floor, so a recovered node never admits
     an instance whose acceptor state is gone (it answers [Truncated]).
     Every instance key below the old floor is already gone, so one
     range record over [floor, k) retires the rest. *)
  let truncate_below t k =
    if k > t.floor then begin
      Storage.write t.io.store ~layer:truncate_layer ~key:floor_key
        (string_of_int k);
      Storage.delete_range t.io.store ~layer:truncate_layer
        ~lo:(Keys.inst t.floor "") ~hi:(Keys.inst k "");
      Hashtbl.filter_map_inplace
        (fun i c -> if i < k then None else Some c)
        t.instances;
      t.floor <- k;
      seek t k
    end
end
