module Engine = Abcast_sim.Engine
module Storage = Abcast_sim.Storage
module Payload = Abcast_core.Payload
module Proto = Abcast_core.Proto

(* The engine, the stack and every process's current protocol state
   under one existential: the wire type ['m] and the state type ['s]
   never leave this module. *)
type t =
  | T : {
      eng : 'm Engine.t;
      stack : (module Proto.S with type t = 's);
      nodes : 's option array; (* the live incarnation of each process *)
      ever_delivered : (int * Payload.id, unit) Hashtbl.t;
          (* keyed (group, id): payload ids are per-stream counters and
             collide across groups of a sharded stack *)
      mutable sent : (int * Payload.id * bool ref) list;
    }
      -> t

let create (module P : Proto.S) ~seed ~n ?net ?(count_bytes = false) ?storage
    ?flight () =
  let msg_size = if count_bytes then Some P.msg_size else None in
  let eng = Engine.create ~seed ~n ?net ?msg_size ?storage ?flight () in
  let nodes = Array.make n None in
  let ever_delivered = Hashtbl.create 256 in
  for i = 0 to n - 1 do
    Engine.set_behavior eng i (fun io ->
        let p =
          P.create io ~deliver:(fun ~group pl ->
              Hashtbl.replace ever_delivered (group, pl.Payload.id) ())
        in
        nodes.(i) <- Some p;
        P.handler p)
  done;
  Engine.start_all eng;
  T { eng; stack = (module P); nodes; ever_delivered; sent = [] }

let n (T c) = Engine.n c.eng
let metrics (T c) = Engine.metrics c.eng
let flight (T c) i = Engine.flight c.eng i
let histogram t name = Abcast_sim.Metrics.histogram (metrics t) name
let hist_summary t name = Abcast_sim.Metrics.hist_summary (metrics t) name
let net (T c) = Engine.network c.eng
let now (T c) = Engine.now c.eng
let events_processed (T c) = Engine.events_processed c.eng
let run ?until ?max_events (T c) = Engine.run ?until ?max_events c.eng

let run_until ?until ?max_events (T c) ~pred () =
  Engine.run_until c.eng ?until ?max_events ~pred ()

let at (T c) time fn = Engine.at c.eng time fn
let after (T c) delay fn = Engine.after c.eng delay fn
let crash (T c) i = Engine.crash c.eng i
let recover (T c) i = Engine.recover c.eng i
let apply_faults (T c) plan = Abcast_sim.Faults.apply c.eng plan
let is_up (T c) i = Engine.is_up c.eng i

let started nodes i =
  match nodes.(i) with
  | Some p -> p
  | None -> invalid_arg "Cluster: process was never started"

let broadcast (T c) ?on_agreed ?(group = 0) ~node data =
  if not (Engine.is_up c.eng node) then None
  else begin
    let (module P) = c.stack in
    let agreed = ref false in
    let cb id =
      agreed := true;
      match on_agreed with Some f -> f id | None -> ()
    in
    let id = P.broadcast (started c.nodes node) ~on_agreed:cb ~group data in
    c.sent <- (group, id, agreed) :: c.sent;
    Some id
  end

let round ?group (T c) i = Proto.round c.stack ?group (started c.nodes i)

let delivered_count ?group (T c) i =
  Proto.delivered_count c.stack ?group (started c.nodes i)

let delivered_tail ?group (T c) i =
  Proto.delivered_tail c.stack ?group (started c.nodes i)

let settle t ~among =
  let counts () = List.map (delivered_count t) among in
  let rec go tries prev =
    run t ~until:(now t + 2_000_000);
    let cur = counts () in
    if cur = prev || tries > 30 then cur else go (tries + 1) cur
  in
  go 0 (counts ())

let delivery_vc ?group (T c) i =
  Proto.delivery_vc c.stack ?group (started c.nodes i)

let unordered_count ?group (T c) i =
  Proto.unordered_count c.stack ?group (started c.nodes i)

let storage (T c) i = Engine.storage c.eng i
let retained_bytes t i = Storage.retained_bytes (storage t i)
let retained_keys t i = Storage.retained_keys (storage t i)
let disk_bytes t i = Storage.disk_bytes (storage t i)
let wal_stats t i = Storage.wal_stats (storage t i)
let read_storage t i key = Storage.read (storage t i) key

let corrupt_storage t i ~key v =
  Storage.write (storage t i) ~layer:"corruption" ~key v

let storage_keys t i prefix = Storage.keys_with_prefix (storage t i) prefix
let sent (T c) = List.rev_map (fun (_, id, flag) -> (id, !flag)) c.sent

let sent_in (T c) ~group =
  List.rev
    (List.filter_map
       (fun (g, id, flag) -> if g = group then Some (id, !flag) else None)
       c.sent)

let ever_delivered (T c) =
  Hashtbl.fold (fun (_, id) () acc -> id :: acc) c.ever_delivered []

let ever_delivered_in (T c) ~group =
  Hashtbl.fold
    (fun (g, id) () acc -> if g = group then id :: acc else acc)
    c.ever_delivered []

let broadcast_blocks (T c) =
  let (module P) = c.stack in
  P.broadcast_blocks

let shards (T c) =
  let (module P) = c.stack in
  P.shards

let all_caught_up t ?group ?among ~count () =
  let ids = match among with Some l -> l | None -> List.init (n t) Fun.id in
  List.for_all (fun i -> delivered_count ?group t i >= count) ids
