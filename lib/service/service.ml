(* Client-facing service front on the live runtime.

   One [front] per (node, group) pair owns that replica's session
   machine, the waiters of locally submitted requests, and the node's
   read-lease view for the group ({!Lease_view}). Session machines are
   (re)created by the group-aware app factory at every incarnation, so a
   recovered node reinstalls its table from the WAL checkpoint and
   replays only the Agreed tail — while its volatile lease view starts
   afresh: a fresh incarnation serves a read-index read only once its
   own marker is granted and every other node's lease it has seen,
   applied or folded into an installed checkpoint, has expired.

   Locking: each front has one mutex; completion callbacks fire outside
   it. The only cross-front state (the marker stamp counter, the
   claimant id) sits behind the service-wide lock. Lock order:
   service lock, then front lock — never the reverse. *)

module Runtime = Abcast_live.Runtime
module Envelope = Abcast_core.Envelope
module Flight = Abcast_sim.Flight
module Histogram = Abcast_util.Histogram
module Kv = Abcast_apps.Kv
module Pkv = Abcast_apps.Partitioned_kv

type read_mode = Broadcast | Read_index

let read_mode_of_string = function
  | "broadcast" -> Some Broadcast
  | "read-index" -> Some Read_index
  | _ -> None

let read_mode_to_string = function
  | Broadcast -> "broadcast"
  | Read_index -> "read-index"

type config = {
  n : int;
  shards : int;
  read_mode : read_mode;
  lease_ms : float;
  max_sessions : int;
}

let default_config =
  {
    n = 3;
    shards = 1;
    read_mode = Broadcast;
    lease_ms = 200.;
    max_sessions = 4096;
  }

type read_result = Value of string | Not_ready

type front = {
  fm : Mutex.t;
  mutable machine : Session.t;
  waiters : (int * int, Envelope.status -> string -> unit) Hashtbl.t;
  mutable lease : Lease_view.t;
}

type t = {
  cfg : config;
  rt : Runtime.t;
  fronts : front array array;  (* node -> group *)
  lease_s : float;
  sm : Mutex.t;
  mutable claimant : int;
  mutable stamp_ctr : int;
  mutable stopping : bool;
  mutable maint : Thread.t option;
  lat_mu : Mutex.t;
  lat : (string * int, Histogram.t) Hashtbl.t;
      (* request latency per (class, group), exported through the
         runtime's Prometheus endpoint with class/group labels *)
}

let mk_front ~node ~lease_s =
  {
    fm = Mutex.create ();
    machine = Session.create ();
    waiters = Hashtbl.create 64;
    lease = Lease_view.create ~self:node ~lease_s;
  }

let group_of_key ~shards key =
  if shards <= 1 then 0 else Pkv.shard_of_key ~shards key

(* ---- per-class request latency (write / lin / stale) ----------------- *)

let observe_latency t ~cls ~group us =
  Mutex.lock t.lat_mu;
  let h =
    match Hashtbl.find_opt t.lat (cls, group) with
    | Some h -> h
    | None ->
      let h = Histogram.create () in
      Hashtbl.add t.lat (cls, group) h;
      h
  in
  Histogram.add h us;
  Mutex.unlock t.lat_mu

(* Prometheus rendering of the latency table, appended to the runtime's
   dump via [set_prom_extra]. Histograms are copied under the lock so
   rendering never races an [observe_latency] from a client thread. *)
let render_latency t buf =
  Mutex.lock t.lat_mu;
  let cells =
    Hashtbl.fold (fun k h acc -> (k, Histogram.copy h) :: acc) t.lat []
    |> List.sort compare
  in
  Mutex.unlock t.lat_mu;
  if cells <> [] then begin
    let pn = "abcast_service_request_us" in
    Buffer.add_string buf
      (Printf.sprintf
         "# HELP %s service request latency by op class
# TYPE %s histogram
"
         pn pn);
    List.iter
      (fun ((cls, group), h) ->
        Runtime.prom_histogram buf ~name:pn
          ~labels:(Printf.sprintf "class=\"%s\",group=\"%d\"" cls group)
          h)
      cells
  end

let group_of_cmd ~shards cmd =
  match Kv.decode_cmd cmd with
  | Some c -> group_of_key ~shards (Kv.cmd_key c)
  | None -> 0

(* Runs in the delivering node's thread for every A-delivered payload of
   (node, group): advance the machine, then act on the event. *)
let on_payload cfg fronts ~flight ~now ~node ~group (pl : Abcast_core.Payload.t)
    =
  let fr = fronts.(node).(group) in
  Mutex.lock fr.fm;
  let ev = Session.apply fr.machine pl.data in
  let fire =
    match ev with
    | Session.Request_done { session; seq; status; reply; _ } ->
      (* Read-index mode acks a request only while this node is the
         leader in view at the request's apply point: a non-leader's ack
         could race a leader's lease read that has not yet applied the
         request (see DESIGN.md, "Service layer"). *)
      let ack =
        cfg.read_mode = Broadcast || Session.leader fr.machine = node
      in
      if ack then (
        match Hashtbl.find_opt fr.waiters (session, seq) with
        | Some k ->
          Hashtbl.remove fr.waiters (session, seq);
          Some (k, status, reply)
        | None -> None)
      else None
    | Session.Marker { kind; node = mn; stamp; granted; _ } ->
      if granted then
        (* one event per observing node: the doctor cross-checks that a
           Lease renewal is only ever granted to the current floor
           holder ([b] packs kind and grant: claim = bit 1) *)
        Flight.record (flight node) ~time:(now ()) ~node ~group ~boot:0
          ~stage:Flight.lease ~trace:0 ~a:mn
          ~b:((if kind = `Claim then 2 else 0) lor 1);
      Lease_view.on_marker fr.lease ~now:(Unix.gettimeofday ()) ~kind ~node:mn
        ~stamp ~granted;
      None
    | Session.Foreign _ -> None
  in
  Mutex.unlock fr.fm;
  match fire with
  | Some (k, status, reply) ->
    (match ev with
    | Session.Request_done { session; seq; _ } ->
      Flight.record (flight node) ~time:(now ()) ~node ~group ~boot:0
        ~stage:Flight.ack ~trace:pl.trace ~a:session ~b:seq
    | _ -> ());
    k status reply
  | None -> ()

let create ?base_port ?dir ?backend ?fsync ?(trace_sample = 0) ?flight_cap
    ?metrics_port ?metrics_interval ?metrics_out (cfg : config) =
  if cfg.n < 1 then invalid_arg "Service.create: n >= 1";
  if cfg.shards < 1 then invalid_arg "Service.create: shards >= 1";
  let lease_s = cfg.lease_ms /. 1000. in
  let fronts =
    Array.init cfg.n (fun node ->
        Array.init cfg.shards (fun _ -> mk_front ~node ~lease_s))
  in
  let app_factory ~node ~group =
    let fr = fronts.(node).(group) in
    let machine = Session.create ~max_sessions:cfg.max_sessions () in
    Mutex.lock fr.fm;
    fr.machine <- machine;
    (* fresh incarnation: waiters of the previous incarnation can never
       complete here, and volatile lease state must not survive *)
    Hashtbl.reset fr.waiters;
    fr.lease <- Lease_view.create ~self:node ~lease_s;
    Mutex.unlock fr.fm;
    let hooks = Session.hooks machine in
    let hooks =
      {
        Abcast_core.Protocol.checkpoint =
          (fun () ->
            Mutex.lock fr.fm;
            let s = hooks.checkpoint () in
            Mutex.unlock fr.fm;
            s);
        install =
          (fun blob ->
            Mutex.lock fr.fm;
            hooks.install blob;
            Lease_view.on_install fr.lease ~now:(Unix.gettimeofday ())
              ~leader:(Session.leader machine);
            Mutex.unlock fr.fm);
      }
    in
    (hooks, fun _pl -> ())
  in
  let stack =
    let inner =
      Abcast_core.Factory.make ~app_factory
        { Abcast_core.Protocol.throughput with trace_sample }
    in
    if cfg.shards = 1 then inner
    else Abcast_core.Factory.sharded ~shards:cfg.shards inner
  in
  (* on_deliver needs the runtime's flight recorders, which exist only
     after [Runtime.create] returns; bridge the cycle with refs the
     first delivery can only ever see initialized (node threads publish
     ops after create). *)
  let flight_ref = ref (fun (_ : int) -> Flight.disabled) in
  let now_ref = ref (fun () -> 0) in
  let rt =
    Runtime.create stack ~n:cfg.n ?base_port ?dir ?backend ?fsync ?flight_cap
      ?metrics_port ?metrics_interval ?metrics_out
      ~on_deliver:(fun ~node ~group pl ->
        on_payload cfg fronts ~flight:!flight_ref ~now:!now_ref ~node ~group pl)
      ()
  in
  (flight_ref := fun i -> Runtime.flight rt i);
  (now_ref := fun () -> Runtime.now_us rt);
  let t =
    {
      cfg;
      rt;
      fronts;
      lease_s;
      sm = Mutex.create ();
      claimant = 0;
      stamp_ctr = 0;
      stopping = false;
      maint = None;
      lat_mu = Mutex.create ();
      lat = Hashtbl.create 8;
    }
  in
  Runtime.set_prom_extra rt (fun buf -> render_latency t buf);
  t

let runtime t = t.rt
let config t = t.cfg
let key_group t key = group_of_key ~shards:t.cfg.shards key

let claimant t =
  Mutex.lock t.sm;
  let c = t.claimant in
  Mutex.unlock t.sm;
  c

let next_stamp t =
  Mutex.lock t.sm;
  t.stamp_ctr <- t.stamp_ctr + 1;
  let s = t.stamp_ctr in
  Mutex.unlock t.sm;
  s

let send_marker t ~node ~group kind =
  let stamp = next_stamp t in
  let fr = t.fronts.(node).(group) in
  Mutex.lock fr.fm;
  Lease_view.sent fr.lease ~now:(Unix.gettimeofday ()) ~stamp;
  Mutex.unlock fr.fm;
  let env =
    match kind with
    | `Claim -> Envelope.Claim { node; stamp }
    | `Lease -> Envelope.Lease { node; stamp }
  in
  Runtime.broadcast ~group t.rt ~node (Envelope.encode env)

let claim t ~node =
  Mutex.lock t.sm;
  t.claimant <- node;
  Mutex.unlock t.sm;
  for g = 0 to t.cfg.shards - 1 do
    send_marker t ~node ~group:g `Claim
  done

(* Lease maintenance: the claimant renews each group's lease every
   quarter window — Lease while it leads, Claim to (re)take the floor. *)
let maintenance_loop t =
  while not t.stopping do
    Thread.delay (t.lease_s /. 4.);
    if not t.stopping then begin
      let c = claimant t in
      if Runtime.is_up t.rt c then
        for g = 0 to t.cfg.shards - 1 do
          let fr = t.fronts.(c).(g) in
          Mutex.lock fr.fm;
          let leads = Session.leader fr.machine = c in
          Mutex.unlock fr.fm;
          send_marker t ~node:c ~group:g (if leads then `Lease else `Claim)
        done
    end
  done

let start t =
  if t.cfg.read_mode = Read_index && t.maint = None then begin
    t.stopping <- false;
    claim t ~node:(claimant t);
    t.maint <- Some (Thread.create maintenance_loop t)
  end

let stop_maintenance t =
  t.stopping <- true;
  (match t.maint with Some th -> Thread.join th | None -> ());
  t.maint <- None

let submit t ~node ~session ~seq ~cmd k =
  let group = group_of_cmd ~shards:t.cfg.shards cmd in
  let fr = t.fronts.(node).(group) in
  Mutex.lock fr.fm;
  Hashtbl.replace fr.waiters (session, seq) k;
  Mutex.unlock fr.fm;
  Flight.record (Runtime.flight t.rt node) ~time:(Runtime.now_us t.rt) ~node
    ~group ~boot:0 ~stage:Flight.submit ~trace:0 ~a:session ~b:seq;
  Runtime.broadcast ~group t.rt ~node
    (Envelope.encode (Envelope.Request { session; seq; cmd }))

let abandon t ~node ~session ~seq ~key =
  let group = group_of_key ~shards:t.cfg.shards key in
  let fr = t.fronts.(node).(group) in
  Mutex.lock fr.fm;
  Hashtbl.remove fr.waiters (session, seq);
  Mutex.unlock fr.fm

let read_stale t ~node ~key =
  let fr = t.fronts.(node).(group_of_key ~shards:t.cfg.shards key) in
  Mutex.lock fr.fm;
  let v = Session.get fr.machine key in
  Mutex.unlock fr.fm;
  Value (Option.value v ~default:"")

(* Linearizable read without a broadcast: serve locally iff this node's
   lease view for the key's group serves. The own lease comes from a
   marker this replica applied, after every write acked before it. *)
let read_index t ~node ~key =
  let fr = t.fronts.(node).(group_of_key ~shards:t.cfg.shards key) in
  let now = Unix.gettimeofday () in
  Mutex.lock fr.fm;
  let v =
    if Lease_view.serves fr.lease ~now then Some (Session.get fr.machine key)
    else None
  in
  Mutex.unlock fr.fm;
  match v with
  | Some v -> Value (Option.value v ~default:"")
  | None -> Not_ready

let holds_lease t ~node ~group =
  let fr = t.fronts.(node).(group) in
  let now = Unix.gettimeofday () in
  Mutex.lock fr.fm;
  let ok = Lease_view.serves fr.lease ~now in
  Mutex.unlock fr.fm;
  ok

(* --- verification accessors (quiesced cluster) ----------------------- *)

let value t ~node ~key =
  match read_stale t ~node ~key with Value v -> v | Not_ready -> ""

let floor t ~node ~session ~key =
  let fr = t.fronts.(node).(group_of_key ~shards:t.cfg.shards key) in
  Mutex.lock fr.fm;
  let f = Session.floor fr.machine session in
  Mutex.unlock fr.fm;
  f

let applied t ~node =
  Array.fold_left
    (fun acc fr ->
      Mutex.lock fr.fm;
      let a = Session.applied fr.machine in
      Mutex.unlock fr.fm;
      acc + a)
    0 t.fronts.(node)

let digest t ~node =
  String.concat "|"
    (Array.to_list
       (Array.map
          (fun fr ->
            Mutex.lock fr.fm;
            let d = Session.digest fr.machine in
            Mutex.unlock fr.fm;
            d)
          t.fronts.(node)))

let shutdown t =
  stop_maintenance t;
  Runtime.shutdown t.rt
