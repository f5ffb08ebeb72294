(* Open-loop load generator for the service layer.

   Arrivals are a Poisson process at the target aggregate rate: the
   driver draws exponential inter-arrival gaps and issues every op whose
   arrival time has passed, regardless of how many are still in flight —
   unlike a closed loop, a slow server does not slow the offered load,
   it grows the latency tail (the coordinated-omission point Ring Paxos
   makes against closed-loop echo tests). Each op is bound to one client
   session; sessions are strictly sequential (seq n+1 is issued only
   after n completed or was abandoned), so an arrival landing on a busy
   client picks the next idle one, and sheds only when all are busy.

   Completions fire in node threads; everything mutable here is guarded
   by one generator lock, taken briefly on both sides. Latencies are
   recorded in microseconds into one histogram per op class. *)

module Histogram = Abcast_util.Histogram
module Envelope = Abcast_core.Envelope
module Kv = Abcast_apps.Kv
module History = Abcast_sim.History
module Runtime = Abcast_live.Runtime

type config = {
  clients : int;
  rate : float;  (* target aggregate arrivals per second *)
  duration : float;  (* seconds of open-loop issue *)
  write_pct : int;  (* % of ops that are writes (Incr on own key) *)
  lin_pct : int;  (* % that are linearizable reads; rest are stale *)
  timeout : float;  (* per-attempt retry deadline, seconds *)
  seed : int;
}

type report = {
  wall : float;
  issued : int;
  completed : int;
  retries : int;
  shed : int;
  not_ready : int;
  failed : int;
  write : Histogram.summary;
  lin : Histogram.summary;
  stale : Histogram.summary;
  writes_issued : int array;  (* per client *)
  writes_acked : int array;
}

let client_key i = "c" ^ string_of_int i

type op_kind =
  | Write
  | Lin_submit  (* linearizable read via broadcast (Get through session) *)
  | Lin_local  (* linearizable read via read-index, may retry locally *)
  | Stale  (* local read at any live node, completes at issue *)

type client = {
  id : int;
  mutable seq : int;  (* last issued session seq *)
  mutable busy : bool;
  mutable op : int;  (* issue counter: stale completions are ignored *)
  mutable kind : op_kind;
  mutable key : string;  (* key of the in-flight op *)
  mutable key_idx : int;  (* client whose cell [key] is (history capture) *)
  mutable issue_t : float;
  mutable deadline : float;
  mutable target : int;
}

type gen = {
  svc : Service.t;
  cfg : config;
  hist : History.t option;  (* per-op completion capture (g.lm held) *)
  lm : Mutex.t;
  rng : Random.State.t;
  clients : client array;
  hw : Histogram.t;
  hl : Histogram.t;
  hs : Histogram.t;
  mutable issued : int;
  mutable completed : int;
  mutable retries : int;
  mutable shed : int;
  mutable not_ready : int;
  mutable failed : int;
  writes_issued : int array;
  writes_acked : int array;
}

let up_node g =
  let rt = Service.runtime g.svc in
  let n = Runtime.n rt in
  let start = Random.State.int g.rng n in
  let rec go i =
    if i = n then start (* all down: broadcast will no-op, retry covers *)
    else
      let cand = (start + i) mod n in
      if Runtime.is_up rt cand then cand else go (i + 1)
  in
  go 0

(* Writes and broadcast reads go through sessions; in read-index mode
   only the leaseholder acks them, so they must target the claimant. *)
let pick_target g =
  if (Service.config g.svc).read_mode = Service.Read_index then
    Service.claimant g.svc
  else up_node g

(* Result value of a completed op for the history log: the Kv counter
   replies are decimal strings, anything else (missing key, non-counter
   reply) records as -1 = "no value". *)
let int_value s = match int_of_string_opt s with Some v -> v | None -> -1

let record g c status ~value =
  let now = Unix.gettimeofday () in
  let lat_us = (now -. c.issue_t) *. 1e6 in
  let h, cls, kind =
    match c.kind with
    | Write -> (g.hw, "write", History.kind_write)
    | Lin_submit | Lin_local -> (g.hl, "lin", History.kind_lin)
    | Stale -> (g.hs, "stale", History.kind_stale)
  in
  Histogram.add h lat_us;
  Service.observe_latency g.svc ~cls ~group:(Service.key_group g.svc c.key)
    lat_us;
  g.completed <- g.completed + 1;
  if c.kind = Write then g.writes_acked.(c.id) <- g.writes_acked.(c.id) + 1;
  (match g.hist with
  | Some hist ->
    History.record hist
      {
        History.client = c.id;
        kind;
        key = c.key_idx;
        seq = c.seq;
        t_inv = int_of_float (c.issue_t *. 1e6);
        t_resp = int_of_float (now *. 1e6);
        value;
        ok = (match status with
             | Envelope.Applied | Envelope.Cached -> true
             | Envelope.Gap -> false);
      }
  | None -> ());
  c.busy <- false

let completion g c op status reply =
  Mutex.lock g.lm;
  if c.busy && c.op = op then record g c status ~value:(int_value reply);
  Mutex.unlock g.lm

(* g.lm held *)
let submit_current g c =
  let cmd =
    match c.kind with
    | Write -> Kv.incr_cmd ~key:c.key
    | Lin_submit -> Kv.get_cmd ~key:c.key
    | Lin_local | Stale -> assert false
  in
  let op = c.op in
  Service.submit g.svc ~node:c.target ~session:c.id ~seq:c.seq ~cmd
    (completion g c op)

(* g.lm held. Returns [true] if the read completed. *)
let try_lin_local g c =
  match Service.read_index g.svc ~node:(Service.claimant g.svc) ~key:c.key with
  | Service.Value v ->
    record g c Envelope.Applied ~value:(int_value v);
    true
  | Service.Not_ready ->
    g.not_ready <- g.not_ready + 1;
    false

let issue g now =
  (* find an idle client, scanning from a random start *)
  let nclients = Array.length g.clients in
  let start = Random.State.int g.rng nclients in
  let rec find i =
    if i = nclients then None
    else
      let c = g.clients.((start + i) mod nclients) in
      if c.busy then find (i + 1) else Some c
  in
  match find 0 with
  | None -> g.shed <- g.shed + 1
  | Some c ->
    g.issued <- g.issued + 1;
    c.busy <- true;
    c.op <- c.op + 1;
    c.issue_t <- now;
    c.deadline <- now +. g.cfg.timeout;
    c.target <- pick_target g;
    let r = Random.State.int g.rng 100 in
    let write = r < g.cfg.write_pct in
    (* a write increments its own client's cell, a read any client's *)
    c.key_idx <- (if write then c.id else Random.State.int g.rng nclients);
    c.key <- client_key c.key_idx;
    if write then begin
      c.kind <- Write;
      c.seq <- c.seq + 1;
      g.writes_issued.(c.id) <- g.writes_issued.(c.id) + 1;
      submit_current g c
    end
    else if r < g.cfg.write_pct + g.cfg.lin_pct then begin
      match (Service.config g.svc).read_mode with
      | Service.Broadcast ->
        c.kind <- Lin_submit;
        c.seq <- c.seq + 1;
        submit_current g c
      | Service.Read_index ->
        c.kind <- Lin_local;
        ignore (try_lin_local g c : bool)
    end
    else begin
      c.kind <- Stale;
      match Service.read_stale g.svc ~node:(up_node g) ~key:c.key with
      | Service.Value v -> record g c Envelope.Applied ~value:(int_value v)
      | Service.Not_ready -> assert false
    end

(* g.lm held: retry every in-flight op past its deadline, and poll
   pending read-index reads. Stale reads are never in flight. *)
let reap g now =
  Array.iter
    (fun c ->
      if c.busy then
        match c.kind with
        | Stale -> ()
        | Lin_local ->
          if try_lin_local g c then ()
          else if now > c.deadline then begin
            g.retries <- g.retries + 1;
            c.deadline <- now +. g.cfg.timeout
          end
        | Write | Lin_submit ->
          if now > c.deadline then begin
            g.retries <- g.retries + 1;
            Service.abandon g.svc ~node:c.target ~session:c.id ~seq:c.seq
              ~key:c.key;
            c.target <- pick_target g;
            c.deadline <- now +. g.cfg.timeout;
            submit_current g c
          end)
    g.clients

(* Read-index mode: offer load only once the claimant holds every
   group's lease, so lease reads measure the steady state rather than
   the claim's first round trip. *)
let await_lease svc =
  let scfg = Service.config svc in
  if scfg.read_mode = Service.Read_index then begin
    let node = Service.claimant svc in
    let groups = List.init scfg.shards Fun.id in
    let deadline = Unix.gettimeofday () +. 5. in
    let held () =
      List.for_all (fun group -> Service.holds_lease svc ~node ~group) groups
    in
    while not (held ()) do
      if Unix.gettimeofday () > deadline then
        failwith "Loadgen.run: no read lease on every group within 5 s";
      Thread.delay 0.001
    done
  end

let run ?history svc (cfg : config) =
  if cfg.clients < 1 then invalid_arg "Loadgen.run: clients >= 1";
  if cfg.rate <= 0. then invalid_arg "Loadgen.run: rate > 0";
  await_lease svc;
  let g =
    {
      svc;
      cfg;
      hist = history;
      lm = Mutex.create ();
      rng = Random.State.make [| cfg.seed |];
      clients =
        Array.init cfg.clients (fun id ->
            {
              id;
              seq = 0;
              busy = false;
              op = 0;
              kind = Write;
              key = "";
              key_idx = 0;
              issue_t = 0.;
              deadline = 0.;
              target = 0;
            });
      hw = Histogram.create ();
      hl = Histogram.create ();
      hs = Histogram.create ();
      issued = 0;
      completed = 0;
      retries = 0;
      shed = 0;
      not_ready = 0;
      failed = 0;
      writes_issued = Array.make cfg.clients 0;
      writes_acked = Array.make cfg.clients 0;
    }
  in
  let t0 = Unix.gettimeofday () in
  let stop_at = t0 +. cfg.duration in
  let next = ref t0 in
  let gap () = -.log (1. -. Random.State.float g.rng 1.) /. cfg.rate in
  let last_reap = ref t0 in
  while Unix.gettimeofday () < stop_at do
    let now = Unix.gettimeofday () in
    Mutex.lock g.lm;
    (* issue every arrival whose time has come (open loop: no waiting
       on completions) *)
    while !next <= now do
      issue g now;
      next := !next +. gap ()
    done;
    if now -. !last_reap > 0.002 then begin
      last_reap := now;
      reap g now
    end;
    Mutex.unlock g.lm;
    let sleep = min (!next -. Unix.gettimeofday ()) 0.001 in
    if sleep > 0. then Thread.delay sleep
  done;
  (* drain: no new arrivals, keep retrying until idle or grace expires *)
  let grace = stop_at +. (3. *. cfg.timeout) +. 1. in
  let busy () =
    Mutex.lock g.lm;
    let b = Array.exists (fun c -> c.busy) g.clients in
    Mutex.unlock g.lm;
    b
  in
  while busy () && Unix.gettimeofday () < grace do
    Mutex.lock g.lm;
    reap g (Unix.gettimeofday ());
    Mutex.unlock g.lm;
    Thread.delay 0.005
  done;
  Mutex.lock g.lm;
  Array.iter
    (fun c ->
      if c.busy then begin
        g.failed <- g.failed + 1;
        c.busy <- false
      end)
    g.clients;
  let report =
    {
      wall = Unix.gettimeofday () -. t0;
      issued = g.issued;
      completed = g.completed;
      retries = g.retries;
      shed = g.shed;
      not_ready = g.not_ready;
      failed = g.failed;
      write = Histogram.summary g.hw;
      lin = Histogram.summary g.hl;
      stale = Histogram.summary g.hs;
      writes_issued = g.writes_issued;
      writes_acked = g.writes_acked;
    }
  in
  Mutex.unlock g.lm;
  report

(* Settle, then audit. Lease markers keep bumping the apply index, so
   stop them first; then wait until the live replicas' digests agree and
   stay equal for 0.3 s. Client i only ever increments its own key, so
   at one converged replica its counter cell must sit between the acks
   it received and the requests it issued: below the acks means a lost
   acked write, above the issues means a duplicate apply. *)
let audit svc (report : report) =
  Service.stop_maintenance svc;
  let rt = Service.runtime svc in
  let agreed () =
    let live = List.filter (Runtime.is_up rt) (List.init (Runtime.n rt) Fun.id) in
    match List.map (fun node -> (node, Service.digest svc ~node)) live with
    | (node, d) :: rest when List.for_all (fun (_, d') -> d' = d) rest ->
      Some (node, d)
    | _ -> None
  in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec settle () =
    if Unix.gettimeofday () > deadline then None
    else
      match agreed () with
      | Some a ->
        Thread.delay 0.3;
        if agreed () = Some a then Some (fst a) else settle ()
      | None ->
        Thread.delay 0.05;
        settle ()
  in
  match settle () with
  | None -> [ "live replicas did not converge within 30 s of the run end" ]
  | Some node ->
    let violations = ref [] in
    let flag fmt =
      Printf.ksprintf (fun v -> violations := v :: !violations) fmt
    in
    Array.iteri
      (fun i issued ->
        let acked = report.writes_acked.(i) in
        let v =
          Option.value ~default:0
            (int_of_string_opt (Service.value svc ~node ~key:(client_key i)))
        in
        if v < acked then
          flag "client %d: %d acked writes but counter=%d (lost acked write)"
            i acked v;
        if v > issued then
          flag "client %d: counter=%d exceeds %d issued writes (duplicate \
                apply)" i v issued)
      report.writes_issued;
    List.rev !violations
