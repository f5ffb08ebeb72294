module Engine = Abcast_sim.Engine
module Payload = Abcast_core.Payload

(* Monomorphic view over one process of the (existential) protocol. The
   [group_*] fields index one broadcast group of a sharded stack (only
   group 0 exists otherwise); the plain fields aggregate. *)
type node_ops = {
  broadcast_to :
    ?on_agreed:(Payload.id -> unit) -> group:int -> string -> Payload.id;
  round : unit -> int;
  delivered_count : unit -> int;
  delivered_tail : unit -> Payload.t list;
  delivery_vc : unit -> Abcast_core.Vclock.t;
  unordered_count : unit -> int;
  group_round : int -> int;
  group_delivered_count : int -> int;
  group_delivered_tail : int -> Payload.t list;
  group_delivery_vc : int -> Abcast_core.Vclock.t;
  group_unordered_count : int -> int;
}

type t = {
  n : int;
  metrics : Abcast_sim.Metrics.t;
  net : Abcast_sim.Net.t;
  nodes : node_ops option array;
  now : unit -> int;
  events_processed : unit -> int;
  run : ?until:int -> ?max_events:int -> unit -> unit;
  run_until :
    ?until:int -> ?max_events:int -> pred:(unit -> bool) -> unit -> bool;
  at : int -> (unit -> unit) -> unit;
  after : int -> (unit -> unit) -> unit;
  crash : int -> unit;
  recover : int -> unit;
  is_up : int -> bool;
  retained_bytes : int -> int;
  retained_keys : int -> int;
  disk_bytes : int -> int;
  flight_of : int -> Abcast_sim.Flight.t;
  wal_stats : int -> Abcast_store.Wal.stats option;
  read_storage : int -> string -> string option;
  corrupt_storage : int -> key:string -> string -> unit;
  storage_keys : int -> string -> string list;
  ever_delivered : (int * Payload.id, unit) Hashtbl.t;
      (* keyed (group, id): payload ids are per-stream counters and
         collide across groups of a sharded stack *)
  broadcast_blocks : bool;
  shards : int;
  mutable sent : (int * Payload.id * bool ref) list;
}

let create (module P : Abcast_core.Proto.S) ~seed ~n ?net
    ?(count_bytes = false) ?storage ?flight ?reorder_apply () =
  let msg_size = if count_bytes then Some P.msg_size else None in
  let eng = Engine.create ~seed ~n ?net ?msg_size ?storage ?flight () in
  let nodes = Array.make n None in
  let ever_delivered = Hashtbl.create 256 in
  for i = 0 to n - 1 do
    Engine.set_behavior eng i (fun io ->
        let io =
          if reorder_apply = Some i then Abcast_sim.Faults.reorder_apply io
          else io
        in
        let p =
          P.create io ~deliver:(fun ~group pl ->
              Hashtbl.replace ever_delivered (group, pl.Payload.id) ())
        in
        nodes.(i) <-
          Some
            {
              broadcast_to =
                (fun ?on_agreed ~group data ->
                  P.broadcast_to p ?on_agreed ~group data);
              round = (fun () -> P.round p);
              delivered_count = (fun () -> P.delivered_count p);
              delivered_tail = (fun () -> P.delivered_tail p);
              delivery_vc = (fun () -> P.delivery_vc p);
              unordered_count = (fun () -> P.unordered_count p);
              group_round = (fun g -> P.group_round p g);
              group_delivered_count = (fun g -> P.group_delivered_count p g);
              group_delivered_tail = (fun g -> P.group_delivered_tail p g);
              group_delivery_vc = (fun g -> P.group_delivery_vc p g);
              group_unordered_count = (fun g -> P.group_unordered_count p g);
            };
        P.handler p)
  done;
  Engine.start_all eng;
  {
    n;
    metrics = Engine.metrics eng;
    net = Engine.network eng;
    nodes;
    now = (fun () -> Engine.now eng);
    events_processed = (fun () -> Engine.events_processed eng);
    run = (fun ?until ?max_events () -> Engine.run ?until ?max_events eng);
    run_until =
      (fun ?until ?max_events ~pred () ->
        Engine.run_until eng ?until ?max_events ~pred ());
    at = (fun time fn -> Engine.at eng time fn);
    after = (fun delay fn -> Engine.after eng delay fn);
    crash = (fun i -> Engine.crash eng i);
    recover = (fun i -> Engine.recover eng i);
    is_up = (fun i -> Engine.is_up eng i);
    retained_bytes =
      (fun i -> Abcast_sim.Storage.retained_bytes (Engine.storage eng i));
    retained_keys =
      (fun i -> Abcast_sim.Storage.retained_keys (Engine.storage eng i));
    disk_bytes = (fun i -> Abcast_sim.Storage.disk_bytes (Engine.storage eng i));
    flight_of = (fun i -> Engine.flight eng i);
    wal_stats = (fun i -> Abcast_sim.Storage.wal_stats (Engine.storage eng i));
    read_storage = (fun i key -> Abcast_sim.Storage.read (Engine.storage eng i) key);
    corrupt_storage =
      (fun i ~key v ->
        Abcast_sim.Storage.write (Engine.storage eng i) ~layer:"corruption"
          ~key v);
    storage_keys =
      (fun i prefix ->
        Abcast_sim.Storage.keys_with_prefix (Engine.storage eng i) prefix);
    ever_delivered;
    broadcast_blocks = P.broadcast_blocks;
    shards = P.shards;
    sent = [];
  }

let n t = t.n
let metrics t = t.metrics
let flight t i = t.flight_of i
let histogram t name = Abcast_sim.Metrics.histogram t.metrics name
let hist_summary t name = Abcast_sim.Metrics.hist_summary t.metrics name
let net t = t.net
let now t = t.now ()
let events_processed t = t.events_processed ()
let run ?until ?max_events t = t.run ?until ?max_events ()

let run_until ?until ?max_events t ~pred () =
  t.run_until ?until ?max_events ~pred ()

let at t time fn = t.at time fn
let after t delay fn = t.after delay fn
let crash t i = t.crash i
let recover t i = t.recover i
let is_up t i = t.is_up i

let ops t i =
  match t.nodes.(i) with
  | Some ops -> ops
  | None -> invalid_arg "Cluster: process was never started"

let broadcast t ?on_agreed ?(group = 0) ~node data =
  if not (t.is_up node) then None
  else begin
    let agreed = ref false in
    let cb id =
      agreed := true;
      match on_agreed with Some f -> f id | None -> ()
    in
    let id = (ops t node).broadcast_to ~on_agreed:cb ~group data in
    t.sent <- (group, id, agreed) :: t.sent;
    Some id
  end

let round ?group t i =
  match group with None -> (ops t i).round () | Some g -> (ops t i).group_round g

let delivered_count ?group t i =
  match group with
  | None -> (ops t i).delivered_count ()
  | Some g -> (ops t i).group_delivered_count g

let delivered_tail ?group t i =
  match group with
  | None -> (ops t i).delivered_tail ()
  | Some g -> (ops t i).group_delivered_tail g

let delivery_vc ?group t i =
  match group with
  | None -> (ops t i).delivery_vc ()
  | Some g -> (ops t i).group_delivery_vc g

let unordered_count ?group t i =
  match group with
  | None -> (ops t i).unordered_count ()
  | Some g -> (ops t i).group_unordered_count g
let retained_bytes t i = t.retained_bytes i
let retained_keys t i = t.retained_keys i
let disk_bytes t i = t.disk_bytes i
let wal_stats t i = t.wal_stats i
let read_storage t i key = t.read_storage i key
let corrupt_storage t i ~key v = t.corrupt_storage i ~key v
let storage_keys t i prefix = t.storage_keys i prefix

let sent t = List.rev_map (fun (_, id, flag) -> (id, !flag)) t.sent

let sent_in t ~group =
  List.rev
    (List.filter_map
       (fun (g, id, flag) -> if g = group then Some (id, !flag) else None)
       t.sent)

let ever_delivered t =
  Hashtbl.fold (fun (_, id) () acc -> id :: acc) t.ever_delivered []

let ever_delivered_in t ~group =
  Hashtbl.fold
    (fun (g, id) () acc -> if g = group then id :: acc else acc)
    t.ever_delivered []

let broadcast_blocks t = t.broadcast_blocks
let shards t = t.shards

let all_caught_up t ?group ?among ~count () =
  let ids = match among with Some l -> l | None -> List.init t.n Fun.id in
  List.for_all (fun i -> delivered_count ?group t i >= count) ids
