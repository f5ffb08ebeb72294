module Rng = Abcast_util.Rng
module Heap = Abcast_util.Heap

type time = int

module Timer = struct
  (* [Pending] until it fires or is cancelled; both end states are
     final. *)
  type state = Pending | Fired | Cancelled

  type t = { mutable state : state; thunk : unit -> unit }

  let make thunk = { state = Pending; thunk }

  let none = { state = Fired; thunk = ignore }

  let cancel t = if t.state = Pending then t.state <- Cancelled

  let pending t = t.state = Pending

  let fire t =
    if t.state = Pending then begin
      t.state <- Fired;
      t.thunk ();
      true
    end
    else false
end

type 'm io = {
  self : int;
  n : int;
  group : int;
      (* broadcast group (shard) this io serves; 0 outside sharded
         stacks. The shard mux rebinds it — with scoped store/metrics
         views — for each inner group instance. *)
  incarnation : int;
  now : unit -> time;
  send : int -> 'm -> unit;
  multisend : 'm -> unit;
  after : time -> (unit -> unit) -> Timer.t;
  store : Storage.t;
  rng : Rng.t;
  metrics : Metrics.t;
  flight : Flight.t;
      (* this node's crash flight recorder; [Flight.disabled] (a no-op)
         in the simulator unless a run opts in *)
  alarm : string -> unit;
      (* safety sentinel tripped (audit divergence): the live runtime
         dumps the flight recorder immediately so the evidence survives *)
}

let map_io wrap io =
  {
    self = io.self;
    n = io.n;
    group = io.group;
    incarnation = io.incarnation;
    now = io.now;
    send = (fun dst m -> io.send dst (wrap m));
    multisend = (fun m -> io.multisend (wrap m));
    after = io.after;
    store = io.store;
    rng = io.rng;
    metrics = io.metrics;
    flight = io.flight;
    alarm = io.alarm;
  }

type 'm behavior = 'm io -> src:int -> 'm -> unit

type 'm ev =
  | Deliver of { dst : int; src : int; msg : 'm }
  | Guarded of { node : int; inc : int; timer : Timer.t }
  | Action of (unit -> unit)

type 'm item = { at : time; seq : int; ev : 'm ev }

type 'm node = {
  id : int;
  mutable up : bool;
  mutable inc : int;
  mutable handler : (src:int -> 'm -> unit) option;
  store : Storage.t;
  rng : Rng.t;
  flight : Flight.t;
}

type 'm t = {
  n : int;
  net : Net.t;
  metrics : Metrics.t;
  rng : Rng.t; (* network stream *)
  nodes : 'm node array;
  behaviors : 'm behavior option array;
  heap : 'm item Heap.t;
  msg_size : ('m -> int) option;
  (* interned per-node counters for the per-message hot paths *)
  h_sent : Metrics.handle array;
  h_bytes : Metrics.handle array;
  h_dropped : Metrics.handle array;
  h_delivered : Metrics.handle array;
  h_lost_down : Metrics.handle array;
  mutable time : time;
  mutable seq : int;
  mutable processed : int;
}

let item_cmp a b =
  let c = compare a.at b.at in
  if c <> 0 then c else compare a.seq b.seq

let create ~seed ~n ?net ?msg_size ?storage ?flight () =
  if n <= 0 then invalid_arg "Engine.create: n must be positive";
  let root = Rng.create seed in
  let metrics = Metrics.create () in
  let net = match net with Some x -> x | None -> Net.create () in
  let mk_store =
    match storage with
    | Some f -> f
    | None -> fun ~metrics ~node -> Storage.create ~metrics ~node ()
  in
  let mk_flight =
    match flight with
    | Some f -> f
    | None -> fun ~node:_ -> Flight.disabled
  in
  let nodes =
    Array.init n (fun id ->
        {
          id;
          up = false;
          inc = -1;
          handler = None;
          store = mk_store ~metrics ~node:id;
          rng = Rng.split root;
          flight = mk_flight ~node:id;
        })
  in
  let handles name = Array.init n (fun i -> Metrics.handle metrics ~node:i name) in
  {
    n;
    net;
    metrics;
    rng = Rng.split root;
    nodes;
    behaviors = Array.make n None;
    heap = Heap.create ~cmp:item_cmp ();
    msg_size;
    h_sent = handles "msgs_sent";
    h_bytes = handles "net_bytes";
    h_dropped = handles "msgs_dropped";
    h_delivered = handles "msgs_delivered";
    h_lost_down = handles "msgs_lost_down";
    time = 0;
    seq = 0;
    processed = 0;
  }

let n t = t.n
let now t = t.time
let metrics t = t.metrics
let network t = t.net
let storage t i = t.nodes.(i).store
let flight t i = t.nodes.(i).flight

let push t ~at ev =
  let at = max at t.time in
  t.seq <- t.seq + 1;
  Heap.push t.heap { at; seq = t.seq; ev }

let transmit t ~src ~dst msg =
  Metrics.hincr t.h_sent.(src);
  (match t.msg_size with
  | Some size -> Metrics.hadd t.h_bytes.(src) (size msg)
  | None -> ());
  match Net.transmit t.net ~rng:t.rng ~src ~dst with
  | Net.Drop -> Metrics.hincr t.h_dropped.(src)
  | Net.Deliver delays ->
    List.iter
      (fun d -> push t ~at:(t.time + d) (Deliver { dst; src; msg }))
      delays

let io_of t node =
  let id = node.id in
  let inc = node.inc in
  {
    self = id;
    n = t.n;
    group = 0;
    incarnation = inc;
    now = (fun () -> t.time);
    send = (fun dst m -> if node.up && node.inc = inc then transmit t ~src:id ~dst m);
    multisend =
      (fun m ->
        if node.up && node.inc = inc then
          for dst = 0 to t.n - 1 do
            transmit t ~src:id ~dst m
          done);
    after =
      (fun delay thunk ->
        if delay < 0 then invalid_arg "io.after: negative delay";
        let timer = Timer.make thunk in
        push t ~at:(t.time + delay) (Guarded { node = id; inc; timer });
        timer);
    store = node.store;
    rng = node.rng;
    metrics = t.metrics;
    flight = node.flight;
    alarm = (fun _reason -> Metrics.incr t.metrics ~node:id "alarms");
  }

let set_behavior t i f = t.behaviors.(i) <- Some f

let start t i =
  let node = t.nodes.(i) in
  if not node.up then begin
    let behavior =
      match t.behaviors.(i) with
      | Some b -> b
      | None -> invalid_arg "Engine.start: no behavior installed"
    in
    node.inc <- node.inc + 1;
    node.up <- true;
    Flight.record node.flight ~time:t.time ~node:i ~group:0 ~boot:node.inc
      ~stage:Flight.boot ~trace:0 ~a:node.inc ~b:0;
    let io = io_of t node in
    node.handler <- Some (behavior io);
    Storage.flush node.store
  end

let start_all t =
  for i = 0 to t.n - 1 do
    start t i
  done

let crash t i =
  let node = t.nodes.(i) in
  if node.up then begin
    node.up <- false;
    node.handler <- None;
    Metrics.incr t.metrics ~node:i "crashes"
  end

let recover = start

let is_up t i = t.nodes.(i).up
let incarnation t i = t.nodes.(i).inc

let at t time fn = push t ~at:time (Action fn)
let after t delay fn = push t ~at:(t.time + delay) (Action fn)
let events_processed t = t.processed

(* A step ends with its node's WAL tail written, so whatever the step
   logged is in the file before any frame it sent is delivered. An
   action may touch any node. A cancelled timer stays in the heap and is
   dispatched at its due time as a no-op, so cancelling moves neither
   the event order, nor [processed], nor the clock. *)
let dispatch t item =
  t.time <- item.at;
  t.processed <- t.processed + 1;
  match item.ev with
  | Action fn ->
    fn ();
    Array.iter (fun nd -> Storage.flush nd.store) t.nodes
  | Guarded { node; inc; timer } ->
    let nd = t.nodes.(node) in
    if nd.up && nd.inc = inc && Timer.fire timer then Storage.flush nd.store
  | Deliver { dst; src; msg } -> (
    let nd = t.nodes.(dst) in
    if nd.up then
      match nd.handler with
      | Some h ->
        Metrics.hincr t.h_delivered.(dst);
        h ~src msg;
        Storage.flush nd.store
      | None -> ()
    else Metrics.hincr t.h_lost_down.(dst))

let default_max_events = 100_000_000

let run ?until ?(max_events = default_max_events) t =
  let budget = ref max_events in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    match Heap.peek t.heap with
    | None -> continue_ := false
    | Some item -> (
      match until with
      | Some limit when item.at > limit -> continue_ := false
      | _ ->
        ignore (Heap.pop t.heap);
        decr budget;
        dispatch t item)
  done;
  match until with Some limit when t.time < limit -> t.time <- limit | _ -> ()

let run_until t ?until ?(max_events = default_max_events) ~pred () =
  let budget = ref max_events in
  let continue_ = ref true in
  let satisfied = ref (pred ()) in
  while (not !satisfied) && !continue_ && !budget > 0 do
    match Heap.peek t.heap with
    | None -> continue_ := false
    | Some item -> (
      match until with
      | Some limit when item.at > limit -> continue_ := false
      | _ ->
        ignore (Heap.pop t.heap);
        decr budget;
        dispatch t item;
        if pred () then satisfied := true)
  done;
  !satisfied
