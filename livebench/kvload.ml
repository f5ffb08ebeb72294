(* Workloads kv-read-open and kv-write-crash: the session service in
   read-index mode under open-loop Poisson load from one generator
   thread. Every op is timed from its due time, so a generator stall
   shows in the latency of the ops it delays; shed ops, ops unacked at
   drain and ops acked past their deadline count as failed. The crash
   workload kills node 0 (claimant and first leader) at 30% of the timed
   window, hands the claim to node 1 at once and recovers node 0 at
   65%. *)

open Util
module Service = Abcast_service.Service
module Kv = Abcast_apps.Kv
module History = Abcast_sim.History

type spec = {
  clients : int;
  rate : float;  (* ops due per second *)
  write_pct : int;
  lin_pct : int;  (* the rest are stale reads *)
  crash : bool;
}

let spec_of = function
  | "kv-read-open" ->
    { clients = 400; rate = 2000.; write_pct = 20; lin_pct = 70; crash = false }
  | _ -> { clients = 200; rate = 800.; write_pct = 80; lin_pct = 20; crash = true }

let n = 3
let attempt_timeout = 0.5 (* per-attempt write deadline before a retry *)
let op_deadline = 5.0 (* an op acked later than this after due failed *)
let warmup_s = 0.5
let catchup_limit = 20. (* seconds from recover for node 0 to catch up *)

type kind = Write | Lin | Stale

type op = {
  o_kind : kind;
  o_client : int;
  o_due : float;
  mutable o_call : float;
  mutable o_ret : float;
  mutable o_fin : float;
  mutable o_shed : bool;
}

type client = {
  id : int;
  mutable seq : int;
  mutable cur : op option;
  mutable target : int;
  mutable deadline : float;
  mutable rkey : int;
}

type g = {
  svc : Service.t;
  spec : spec;
  lock : Mutex.t;
  rng : Random.State.t;
  clients : client array;
  mutable ops : op list;  (* newest first *)
  mutable next_due : float;
  issued_w : int array;
  acked_w : int array;
  submit_call : Samples.t;
  ri_call : Samples.t;
  mutable ri_calls : int;
  mutable not_ready : int;
  mutable retries : int;
  mutable kill_at : float option;
  mutable first_ack_after_kill : float option;
  hist : History.t option;
}

let key i = "c" ^ string_of_int i

let int_value s = match int_of_string_opt s with Some v -> v | None -> -1

(* g.lock held *)
let finish g c op t ~value =
  op.o_fin <- t;
  c.cur <- None;
  match g.hist with
  | Some h ->
    History.record h
      {
        History.client = c.id;
        kind =
          (match op.o_kind with
          | Write -> History.kind_write
          | Lin -> History.kind_lin
          | Stale -> History.kind_stale);
        key = (match op.o_kind with Write -> c.id | _ -> c.rkey);
        seq = (match op.o_kind with Write -> c.seq | _ -> 0);
        t_inv = int_of_float (op.o_call *. 1e6);
        t_resp = int_of_float (t *. 1e6);
        value;
        ok = true;
      }
  | None -> ()

let on_ack g c op _status reply =
  let t = now () in
  Mutex.lock g.lock;
  (match c.cur with
  | Some o when o == op ->
    g.acked_w.(c.id) <- g.acked_w.(c.id) + 1;
    (match g.kill_at with
    | Some k when op.o_due >= k && g.first_ack_after_kill = None ->
      g.first_ack_after_kill <- Some t
    | _ -> ());
    finish g c op t ~value:(int_value reply)
  | _ -> ());
  Mutex.unlock g.lock

(* g.lock held *)
let submit g c op =
  let t = now () in
  Service.submit g.svc ~node:c.target ~session:c.id ~seq:c.seq
    ~cmd:(Kv.incr_cmd ~key:(key c.id)) (on_ack g c op);
  Samples.add g.submit_call ((now () -. t) *. 1e6)

(* g.lock held. [true] when the read completed. *)
let try_lin g c op =
  let t = now () in
  let r = Service.read_index g.svc ~node:(Service.claimant g.svc) ~key:(key c.rkey) in
  let t' = now () in
  Samples.add g.ri_call ((t' -. t) *. 1e6);
  g.ri_calls <- g.ri_calls + 1;
  match r with
  | Service.Value v ->
    finish g c op t' ~value:(int_value v);
    true
  | Service.Not_ready ->
    g.not_ready <- g.not_ready + 1;
    false

let up_node g =
  let rt = Service.runtime g.svc in
  let s = Random.State.int g.rng n in
  let rec go i =
    if i = n then s
    else if Runtime.is_up rt ((s + i) mod n) then (s + i) mod n
    else go (i + 1)
  in
  go 0

(* g.lock held: one arrival due at [due], issued now. *)
let issue g ~due =
  let nc = Array.length g.clients in
  let pick = Random.State.int g.rng nc in
  let r = Random.State.int g.rng 100 in
  let rkey = Random.State.int g.rng nc in
  let kind =
    if r < g.spec.write_pct then Write
    else if r < g.spec.write_pct + g.spec.lin_pct then Lin
    else Stale
  in
  let rec idle i =
    if i = nc then None
    else
      let c = g.clients.((pick + i) mod nc) in
      if c.cur = None then Some c else idle (i + 1)
  in
  let t = now () in
  let op =
    { o_kind = kind; o_client = -1; o_due = due; o_call = t; o_ret = t;
      o_fin = nan; o_shed = false }
  in
  match idle 0 with
  | None ->
    g.ops <- { op with o_shed = true } :: g.ops
  | Some c ->
    let op = { op with o_client = c.id } in
    g.ops <- op :: g.ops;
    c.cur <- Some op;
    c.rkey <- rkey;
    (match kind with
    | Write ->
      c.seq <- c.seq + 1;
      g.issued_w.(c.id) <- g.issued_w.(c.id) + 1;
      c.target <- Service.claimant g.svc;
      c.deadline <- t +. attempt_timeout;
      submit g c op
    | Lin -> ignore (try_lin g c op : bool)
    | Stale -> (
      match Service.read_stale g.svc ~node:(up_node g) ~key:(key rkey) with
      | Service.Value v -> finish g c op (now ()) ~value:(int_value v)
      | Service.Not_ready -> ()));
    op.o_ret <- now ()

(* g.lock held: poll pending lease reads, retry writes past deadline at
   the current claimant (same session seq, so the table dedups). *)
let reap g =
  let t = now () in
  Array.iter
    (fun c ->
      match c.cur with
      | Some ({ o_kind = Lin; _ } as op) -> ignore (try_lin g c op : bool)
      | Some ({ o_kind = Write; _ } as op) when t > c.deadline ->
        g.retries <- g.retries + 1;
        Service.abandon g.svc ~node:c.target ~session:c.id ~seq:c.seq
          ~key:(key c.id);
        c.target <- Service.claimant g.svc;
        c.deadline <- t +. attempt_timeout;
        submit g c op
      | _ -> ())
    g.clients

let gap g = -.log (1. -. Random.State.float g.rng 1.) /. g.spec.rate

(* Open-loop arrivals due before [until], each issued as soon as the
   generator gets to it; pending lease reads and write retries are
   serviced every millisecond. *)
let generate g ~until =
  let last_reap = ref 0. in
  while now () < until do
    let t = now () in
    Mutex.lock g.lock;
    while g.next_due <= t && g.next_due < until do
      issue g ~due:g.next_due;
      g.next_due <- g.next_due +. gap g
    done;
    if t -. !last_reap >= 0.001 then begin
      last_reap := t;
      reap g
    end;
    Mutex.unlock g.lock;
    let sl = Float.min (g.next_due -. now ()) 0.0005 in
    if sl > 0. then Thread.delay sl
  done

(* No more arrivals: keep servicing retries until every client is idle. *)
let drain g ~deadline =
  let busy () =
    Mutex.lock g.lock;
    reap g;
    let b = Array.exists (fun c -> c.cur <> None) g.clients in
    Mutex.unlock g.lock;
    b
  in
  while busy () && now () < deadline do
    Thread.delay 0.002
  done

(* Flight-ring capacity of a traced cluster: enough to keep every event of
   set-up, window and drain (nodes record at most ~8k events/s here), so
   the doctor sees the whole run, the crash and the recovery included. *)
let traced_flight_cap seconds = 10_000 * (int_of_float seconds + 5)

let setup w ~seed ~k ~seconds ~trace =
  let spec = spec_of w in
  let t0 = now () in
  let dir = fresh_dir (Printf.sprintf "%s-%d" w k) in
  let cfg =
    {
      Service.default_config with
      n;
      read_mode = Service.Read_index;
      max_sessions = max 4096 (2 * spec.clients);
    }
  in
  let svc =
    with_fresh_ports (fun base_port ->
        Service.create ~base_port ~dir ~backend:`Wal
          ~fsync:(Abcast_store.Durable.Every { ops = 64; ms = 20 })
          ?trace_sample:(if trace then Some 4 else None)
          ~flight_cap:(if trace then traced_flight_cap seconds else 8192)
          cfg)
  in
  Service.start svc;
  let lease_deadline = now () +. 20. in
  while (not (Service.holds_lease svc ~node:0 ~group:0)) && now () < lease_deadline do
    Thread.delay 0.001
  done;
  if not (Service.holds_lease svc ~node:0 ~group:0) then
    failwith (w ^ ": no read lease within 20 s");
  let g =
    {
      svc;
      spec;
      lock = Mutex.create ();
      rng = Random.State.make [| seed; k; (if spec.crash then 0xc2 else 0x2e) |];
      clients =
        Array.init spec.clients (fun id ->
            { id; seq = 0; cur = None; target = 0; deadline = 0.; rkey = 0 });
      ops = [];
      next_due = now ();
      issued_w = Array.make spec.clients 0;
      acked_w = Array.make spec.clients 0;
      submit_call = Samples.create ();
      ri_call = Samples.create ();
      ri_calls = 0;
      not_ready = 0;
      retries = 0;
      kill_at = None;
      first_ack_after_kill = None;
      hist =
        (if trace then
           Some (History.create ~path:(Filename.concat dir "client.history"))
         else None);
    }
  in
  generate g ~until:(now () +. warmup_s);
  (g, dir, now () -. t0)

(* Fault schedule of kv-write-crash, on its own thread so the generator
   keeps its schedule while a node goes down and comes back. *)
let fault_thread g ~t_start ~seconds =
  let rt = Service.runtime g.svc in
  let pre = ref None and catchup = ref None in
  let th =
    Thread.create
      (fun () ->
        let wait_until t =
          let d = t -. now () in
          if d > 0. then Thread.delay d
        in
        wait_until (t_start +. (0.3 *. seconds));
        pre := Some (snapshot ~nodes:[ 0 ] rt);
        Mutex.lock g.lock;
        g.kill_at <- Some (now ());
        Mutex.unlock g.lock;
        Runtime.crash rt 0;
        Service.claim g.svc ~node:1;
        wait_until (t_start +. (0.65 *. seconds));
        let target = Service.applied g.svc ~node:1 in
        let t_rec = now () in
        Runtime.recover rt 0;
        let give_up = t_rec +. catchup_limit in
        while Service.applied g.svc ~node:0 < target && now () < give_up do
          Thread.delay 0.001
        done;
        if Service.applied g.svc ~node:0 >= target then
          catchup := Some ((now () -. t_rec) *. 1e3))
      ()
  in
  (th, pre, catchup)

(* What the timed window yields. *)
type window = {
  setup_dt : float;
  window_ops : op list;  (* ops due in the window *)
  s0 : snap;
  s1 : snap;
  u : usage;
  w_errors : string list;
  retries : int;
  not_ready : int;
  ri_calls : int;
  submit_call : float list;
  ri_call : float list;
  unavail : float option;
  catchup : float option;
  fsync : float option;
  net : Runtime.net_stats list;
  w_offset : float;
  w_kill : float option;
  w_dir : string;
  opi : float option;
  quiet : quiet;
}

let tail_list s k0 = List.init (Samples.count s - k0) (fun i -> s.Samples.a.(k0 + i))

let measure w ~seed ~k ~seconds ~trace =
  let g, dir, setup_dt = setup w ~seed ~k ~seconds ~trace in
  let rt = Service.runtime g.svc in
  let w_offset = now () -. (float_of_int (Runtime.now_us rt) /. 1e6) in
  let s0 = snapshot rt in
  let lw0 = live_words () in
  let us0 = usage () in
  Mutex.lock g.lock;
  let t_start = now () in
  g.ops <- [];
  let retries0 = g.retries and nr0 = g.not_ready and ri0 = g.ri_calls in
  let sc0 = Samples.count g.submit_call and rc0 = Samples.count g.ri_call in
  Mutex.unlock g.lock;
  let t_end = t_start +. seconds in
  let fault =
    if g.spec.crash then Some (fault_thread g ~t_start ~seconds) else None
  in
  let quiet = steal_sampler ~until:t_end in
  generate g ~until:t_end;
  let quiet = quiet () in
  let u = usage_between us0 (usage ()) in
  let s1 = snapshot rt in
  drain g ~deadline:(now () +. 10.);
  let u = { u with live_words = live_words () - lw0 } in
  let pre, catchup =
    match fault with
    | Some (th, pre, catchup) ->
      Thread.join th;
      (!pre, !catchup)
    | None -> (None, None)
  in
  let s1 = match pre with Some p -> add_snap s1 p | None -> s1 in
  (* ---- checks: replicas converge, exactly-once per client, and on the
     crash workload the outage ends and the recovered node catches up ---- *)
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Service.stop_maintenance g.svc;
  let up = List.filter (Runtime.is_up rt) (List.init n Fun.id) in
  if List.length up <> n then
    err "only %d of %d nodes up at the end" (List.length up) n;
  let agree () =
    match List.map (fun i -> Service.digest g.svc ~node:i) up with
    | d :: ds -> List.for_all (( = ) d) ds
    | [] -> false
  in
  let conv_deadline = now () +. 30. in
  let stable = ref false in
  while (not !stable) && now () < conv_deadline do
    if agree () then begin
      let d = Service.digest g.svc ~node:(List.hd up) in
      Thread.delay 0.3;
      stable := agree () && Service.digest g.svc ~node:(List.hd up) = d
    end
    else Thread.delay 0.05
  done;
  if not !stable then err "replica digests did not converge within 30 s";
  let audit = Service.claimant g.svc in
  Mutex.lock g.lock;
  Array.iteri
    (fun i issued ->
      let v =
        Option.value ~default:0
          (int_of_string_opt (Service.value g.svc ~node:audit ~key:(key i)))
      in
      if v < g.acked_w.(i) then
        err "client %d: %d writes acked but counter is %d" i g.acked_w.(i) v;
      if v > issued then err "client %d: counter %d exceeds %d issued" i v issued)
    g.issued_w;
  let unavail =
    match (g.kill_at, g.first_ack_after_kill) with
    | Some k, Some a -> Some ((a -. k) *. 1e3)
    | _ -> None
  in
  if g.spec.crash then begin
    if unavail = None then err "no write due after the kill was acked";
    if catchup = None then
      err "node 0 did not catch up within %.0f s of its recovery" catchup_limit
  end;
  let m =
    {
      setup_dt;
      window_ops =
        List.filter (fun o -> o.o_due >= t_start && o.o_due < t_end) (List.rev g.ops);
      s0;
      s1;
      u;
      w_errors = List.rev !errors;
      retries = g.retries - retries0;
      not_ready = g.not_ready - nr0;
      ri_calls = g.ri_calls - ri0;
      submit_call = tail_list g.submit_call sc0;
      ri_call = tail_list g.ri_call rc0;
      unavail;
      catchup;
      fsync = fsync_p99 rt;
      net = List.map (Runtime.net_stats rt) up;
      w_offset;
      w_kill = g.kill_at;
      w_dir = dir;
      opi = ops_per_instance s0 s1;
      quiet;
    }
  in
  Mutex.unlock g.lock;
  Option.iter History.close g.hist;
  Service.shutdown g.svc;
  m

let mean_opt = function
  | [] -> None
  | l -> Some (List.fold_left ( +. ) 0. l /. float_of_int (List.length l))

let run w ~seed ~seconds ~trace =
  (* set-ups that are not timed, for the median set-up time *)
  let setups =
    List.init (setup_reps - 1) (fun k ->
        let g, dir, dt = setup w ~seed ~k ~seconds ~trace in
        Option.iter History.close g.hist;
        Service.shutdown g.svc;
        rm_rf dir;
        dt)
  in
  let m = measure w ~seed ~k:(setup_reps - 1) ~seconds ~trace in
  if not trace then rm_rf m.w_dir;
  let window = m.window_ops in
  let done_ o = Float.is_finite o.o_fin in
  let failed_op o = o.o_shed || (not (done_ o)) || o.o_fin -. o.o_due > op_deadline in
  let count f = List.length (List.filter f window) in
  let shed = count (fun o -> o.o_shed) in
  let unacked = count (fun o -> (not o.o_shed) && not (done_ o)) in
  let late = count (fun o -> done_ o && o.o_fin -. o.o_due > op_deadline) in
  if shed + unacked + late > 0 then
    Printf.eprintf "%s: %d ops shed, %d unacked at drain, %d past deadline\n%!" w
      shed unacked late;
  let failed = count failed_op in
  let completed = count done_ in
  (* due -> completion; a failed op is a sample of infinite latency *)
  let lat kind scale =
    List.filter_map
      (fun o ->
        if o.o_kind = kind then
          Some (o.o_due, if failed_op o then infinity else (o.o_fin -. o.o_due) *. scale)
        else None)
      window
  in
  let all kind scale =
    let s = Samples.create () in
    List.iter (fun (_, v) -> Samples.add s v) (lat kind scale);
    s
  in
  let quiet kind scale =
    let v, k = quiet_p50 m.quiet (lat kind scale) in
    (Some v, Some k)
  in
  let qw, qwn = quiet Write 1e3 and ql, qln = quiet Lin 1e6 in
  let gen_late = Samples.create () in
  List.iter
    (fun o -> if not o.o_shed then Samples.add gen_late ((o.o_call -. o.o_due) *. 1e3))
    window;
  let attempted = List.length window in
  let net f =
    float_of_int (List.fold_left (fun a (x : Runtime.net_stats) -> a + f x) 0 m.net)
  in
  let values =
    [
      ("setup_s", Some (median (m.setup_dt :: setups)), Some setup_reps);
      ("ops_per_s", Some (float_of_int completed /. seconds), Some completed);
    ]
    @ [ ("write_p50_quiet_ms", qw, qwn); ("lin_read_p50_quiet_us", ql, qln) ]
    @ percentiles "write" "ms" (all Write 1e3)
    @ percentiles "lin_read" "us" (all Lin 1e6)
    @ [
        ("gen_late_p99_ms", Some (Samples.pct gen_late 99.), Some (Samples.count gen_late));
        ("failed_frac",
         Some (float_of_int failed /. float_of_int (max attempted 1)), Some attempted);
        ("unavail_ms", m.unavail, None);
        ("catchup_ms", m.catchup, None);
        ("live.tx_oversize", Some (net (fun x -> x.tx_oversize)), None);
        ("live.rx_undecodable", Some (net (fun x -> x.rx_undecodable)), None);
        ("wal.fsync_us_p99", m.fsync, None);
        ("service.submit_call_us", mean_opt m.submit_call, None);
        ("service.read_index_call_us", mean_opt m.ri_call, None);
        ("service.not_ready_frac",
         (if m.ri_calls > 0 then
            Some (float_of_int m.not_ready /. float_of_int m.ri_calls)
          else None),
         Some m.ri_calls);
        ("service.retries_per_kop",
         Some (1000. *. float_of_int m.retries /. float_of_int (max completed 1)),
         Some m.retries);
      ]
    @ common_values ~ops:completed ~u:m.u ~s0:m.s0 ~s1:m.s1
  in
  let spans =
    List.map
      (fun o ->
        {
          sp_id = o.o_client;
          sp_kind = (match o.o_kind with Write -> 'w' | Lin -> 'l' | Stale -> 's');
          sp_due = o.o_due;
          sp_call = o.o_call;
          sp_ret = o.o_ret;
          sp_fin = o.o_fin;
        })
      (List.filter (fun o -> not o.o_shed) window)
  in
  {
    values;
    attempted;
    failed;
    errors = m.w_errors;
    trace_dir = (if trace then Some m.w_dir else None);
    rt_offset = m.w_offset;
    kill_at = m.w_kill;
    spans;
    ops_per_instance = m.opi;
  }
