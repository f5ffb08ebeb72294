(* Workload bcast-closed: raw atomic broadcast on the throughput stack,
   closed loop with a fixed number of broadcasts outstanding, spread
   round-robin over the origins. A new broadcast is due the moment an
   earlier one A-delivers at its origin. A minimal counter app rides as
   group app state, so checkpoints compact Agreed the way a deployed app
   does; it also keeps a running hash of delivered ids, compared across
   nodes at common delivery positions. *)

open Util
module Payload = Abcast_core.Payload
module Factory = Abcast_core.Factory

let n = 3
let outstanding = 256
let payload_bytes = 64
let grid = 1024
let warmup_ops = 4000

(* per-op state codes *)
let st_out = '\001' (* broadcast, not yet delivered at its origin *)
let st_done = '\002' (* delivered at its origin *)
let st_skipped = '\003' (* origin jumped past it by state transfer *)

type t = {
  lock : Mutex.t;
  cond : Condition.t;
  counts : int Atomic.t array;  (* app delivery count per node *)
  grids : (int, int) Hashtbl.t array;  (* node: position -> chain hash *)
  mutable call_t : float array;
  mutable due_t : float array;
  mutable ret_t : float array;
  mutable fin_t : float array;
  mutable state : Bytes.t;
  mutable anywhere : Bytes.t;  (* delivered at some node *)
  mutable next : int;
  mutable busy : int;
  freed : float Queue.t;  (* due times of freed slots, FIFO *)
  inflight : int Queue.t;
  mutable stop : bool;
  filler : string;
}

let create_state seed =
  let rng = Random.State.make [| seed; 0xbc |] in
  let cap = 1 lsl 16 in
  {
    lock = Mutex.create ();
    cond = Condition.create ();
    counts = Array.init n (fun _ -> Atomic.make 0);
    grids = Array.init n (fun _ -> Hashtbl.create 64);
    call_t = Array.make cap nan;
    due_t = Array.make cap nan;
    ret_t = Array.make cap nan;
    fin_t = Array.make cap nan;
    state = Bytes.make cap '\000';
    anywhere = Bytes.make cap '\000';
    next = 0;
    busy = 0;
    freed = Queue.create ();
    inflight = Queue.create ();
    stop = false;
    filler =
      String.init (payload_bytes - 8) (fun _ ->
          Char.chr (97 + Random.State.int rng 26));
  }

(* st.lock held *)
let ensure_cap st i =
  let cap = Array.length st.call_t in
  if i >= cap then begin
    let grow a = Array.append a (Array.make cap nan) in
    st.call_t <- grow st.call_t;
    st.due_t <- grow st.due_t;
    st.ret_t <- grow st.ret_t;
    st.fin_t <- grow st.fin_t;
    st.state <- Bytes.cat st.state (Bytes.make cap '\000');
    st.anywhere <- Bytes.cat st.anywhere (Bytes.make cap '\000')
  end

let mix h (id : Payload.id) =
  ((h * 1_000_003) lxor ((id.origin lsl 48) lxor (id.boot lsl 32) lxor id.seq))
  land max_int

(* The counter app of node [i]: (count, chain hash), checkpointed and
   installed as a whole. Its deliver upcall also closes the loop. *)
let app_factory st ~node ~group:_ =
  let count = ref 0 and hash = ref 0 in
  let note_grid () =
    if !count mod grid = 0 then begin
      Mutex.lock st.lock;
      Hashtbl.replace st.grids.(node) !count !hash;
      Mutex.unlock st.lock
    end
  in
  let app =
    {
      Abcast_core.Protocol.checkpoint =
        (fun () -> Printf.sprintf "%d %d" !count !hash);
      install =
        (fun s ->
          Scanf.sscanf s "%d %d" (fun c h ->
              count := c;
              hash := h);
          Atomic.set st.counts.(node) !count;
          note_grid ());
    }
  in
  let deliver (p : Payload.t) =
    incr count;
    hash := mix !hash p.id;
    Atomic.set st.counts.(node) !count;
    note_grid ();
    if String.length p.data = payload_bytes then begin
      let seq = Int64.to_int (String.get_int64_le p.data 0) in
      Mutex.lock st.lock;
      if seq >= 0 && seq < st.next then begin
        Bytes.set st.anywhere seq '\001';
        if p.id.origin = node && Bytes.get st.state seq = st_out then begin
          let t = now () in
          Bytes.set st.state seq st_done;
          st.fin_t.(seq) <- t;
          st.busy <- st.busy - 1;
          Queue.push t st.freed;
          Condition.signal st.cond
        end
      end;
      Mutex.unlock st.lock
    end
  in
  (app, deliver)

(* st.lock held: free the slot of the oldest broadcast if its origin
   skipped it through a state-transfer jump (delivered elsewhere, never
   at the origin). *)
let reap st t =
  let rec go () =
    match Queue.peek_opt st.inflight with
    | Some s when Bytes.get st.state s <> st_out ->
      ignore (Queue.pop st.inflight);
      go ()
    | Some s when st.call_t.(s) < t -. 3. && Bytes.get st.anywhere s <> '\000'
      ->
      ignore (Queue.pop st.inflight);
      Bytes.set st.state s st_skipped;
      st.busy <- st.busy - 1;
      Queue.push t st.freed;
      go ()
    | _ -> ()
  in
  go ()

let min_count st =
  Array.fold_left (fun m c -> min m (Atomic.get c)) max_int st.counts

(* Closed-loop generator until [until] (wall clock) or [enough ()]. *)
let generate st rt ~until ~enough =
  let data = Bytes.create payload_bytes in
  Bytes.blit_string st.filler 0 data 8 (payload_bytes - 8);
  Mutex.lock st.lock;
  while now () < until && not (enough ()) do
    if st.busy < outstanding then begin
      let t = now () in
      let due = if Queue.is_empty st.freed then t else Queue.pop st.freed in
      let seq = st.next in
      ensure_cap st seq;
      st.next <- seq + 1;
      st.busy <- st.busy + 1;
      Bytes.set st.state seq st_out;
      st.due_t.(seq) <- due;
      st.call_t.(seq) <- t;
      Queue.push seq st.inflight;
      Mutex.unlock st.lock;
      Bytes.set_int64_le data 0 (Int64.of_int seq);
      Runtime.broadcast rt ~node:(seq mod n) (Bytes.to_string data);
      let r = now () in
      Mutex.lock st.lock;
      st.ret_t.(seq) <- r
    end
    else begin
      reap st (now ());
      if st.busy >= outstanding then Condition.wait st.cond st.lock
    end
  done;
  Mutex.unlock st.lock

(* Wakes the generator periodically so deadlines and the reaper run even
   when no delivery arrives. *)
let ticker st =
  Thread.create
    (fun () ->
      while not st.stop do
        Thread.delay 0.005;
        Mutex.lock st.lock;
        Condition.broadcast st.cond;
        Mutex.unlock st.lock
      done)
    ()

let make_cluster st ~trace ~dir =
  let stack =
    Factory.throughput
      ?trace_sample:(if trace then Some 16 else None)
      ~group_app_factory:(app_factory st) ()
  in
  with_fresh_ports (fun base_port ->
      Runtime.create stack ~n ~base_port ~dir ~backend:`Wal
        ~fsync:(Abcast_store.Durable.Every { ops = 64; ms = 20 })
        ~flight_cap:(if trace then 1 lsl 18 else 8192)
        ())

(* One set-up: cluster create, then warm-up until every replica has
   delivered [warmup_ops]. Returns the state, runtime and set-up time. *)
let setup ~seed ~k ~trace =
  let t0 = now () in
  let st = create_state (seed + (1000 * k)) in
  let dir = fresh_dir (Printf.sprintf "bcast-closed-%d" k) in
  let rt = make_cluster st ~trace ~dir in
  let tk = ticker st in
  generate st rt ~until:(t0 +. 60.) ~enough:(fun () -> min_count st >= warmup_ops);
  let dt = now () -. t0 in
  if min_count st < warmup_ops then failwith "bcast-closed: warm-up stalled";
  (st, rt, tk, dir, dt)

let teardown (st, rt, tk, _, _) =
  st.stop <- true;
  Thread.join tk;
  Runtime.shutdown rt

(* The timed cluster: set-up, a window of [seconds], drain, checks. *)
type window = {
  setup_dt : float;
  ops : int;  (* delivered at every replica during the window *)
  first : int;
  last : int;
  st : t;
  s0 : snap;
  s1 : snap;
  u : usage;
  w_errors : string list;
  oversize : int;
  undecodable : int;
  fsync : float option;
  w_offset : float;
  w_dir : string;
  quiet : quiet;
}

let measure ~seed ~k ~seconds ~trace =
  let ((st, rt, _, dir, setup_dt) as c) = setup ~seed ~k ~trace in
  let w_offset = now () -. (float_of_int (Runtime.now_us rt) /. 1e6) in
  let s0 = snapshot rt in
  let lw0 = live_words () in
  let us0 = usage () in
  let c0 = Array.map Atomic.get st.counts in
  let t_start = now () in
  Mutex.lock st.lock;
  let first = st.next in
  Mutex.unlock st.lock;
  let t_end = t_start +. seconds in
  let slots = steal_sampler ~until:t_end in
  generate st rt ~until:t_end ~enough:(fun () -> false);
  let slots = slots () in
  let c1 = Array.map Atomic.get st.counts in
  let u = usage_between us0 (usage ()) in
  let s1 = snapshot rt in
  Mutex.lock st.lock;
  let last = st.next in
  Mutex.unlock st.lock;
  (* drain: every broadcast delivered at its origin, then quiescence *)
  let deadline = now () +. 15. in
  let drained () =
    Mutex.lock st.lock;
    reap st (now ());
    let b = st.busy in
    Mutex.unlock st.lock;
    b = 0
  in
  while (not (drained ())) && now () < deadline do
    Thread.delay 0.01
  done;
  let quiet = ref false in
  while (not !quiet) && now () < deadline +. 15. do
    let a = Array.map Atomic.get st.counts in
    Thread.delay 0.2;
    let b = Array.map Atomic.get st.counts in
    quiet := a = b && Array.for_all (fun x -> x = b.(0)) b
  done;
  let u = { u with live_words = live_words () - lw0 } in
  let net = List.init n (fun i -> Runtime.net_stats rt i) in
  let fsync = fsync_p99 rt in
  teardown c;
  (* ---- checks ---- *)
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if not !quiet then err "replicas did not reach equal delivery counts";
  let common = ref 0 in
  Hashtbl.iter
    (fun pos h ->
      for j = 1 to n - 1 do
        match Hashtbl.find_opt st.grids.(j) pos with
        | Some h' when h' <> h ->
          err "delivery hash of node 0 and node %d differ at position %d" j pos
        | Some _ -> incr common
        | None -> ()
      done)
    st.grids.(0);
  if !common = 0 then err "no common delivery position to compare hashes at";
  let oversize =
    List.fold_left (fun a (s : Runtime.net_stats) -> a + s.tx_oversize) 0 net
  in
  let undecodable =
    List.fold_left (fun a (s : Runtime.net_stats) -> a + s.rx_undecodable) 0 net
  in
  if oversize > 0 then err "%d datagrams refused as oversize" oversize;
  {
    setup_dt;
    ops = Array.fold_left min max_int (Array.mapi (fun i c -> c - c0.(i)) c1);
    first;
    last;
    st;
    s0;
    s1;
    u;
    w_errors = List.rev !errors;
    oversize;
    undecodable;
    fsync;
    w_offset;
    w_dir = dir;
    quiet = slots;
  }

let run ~seed ~seconds ~trace =
  (* set-ups that are not timed, for the median set-up time *)
  let setups =
    List.init (setup_reps - 1) (fun k ->
        let ((_, _, _, dir, dt) as c) = setup ~seed ~k ~trace in
        teardown c;
        rm_rf dir;
        dt)
  in
  let m = measure ~seed ~k:(setup_reps - 1) ~seconds ~trace in
  if not trace then rm_rf m.w_dir;
  let { st; first; last; _ } = m in
  let attempted = last - first in
  let failed = ref 0 in
  let lat_w = Samples.create () and lat_d = Samples.create () in
  let late = Samples.create () and call = Samples.create () in
  let spans = ref [] and quiet_w = ref [] in
  for s = first to last - 1 do
    (* a broadcast delivered nowhere failed: infinite latency *)
    let fin =
      if Bytes.get st.anywhere s = '\000' then (incr failed; infinity)
      else st.fin_t.(s)
    in
    (* one its origin skipped by state transfer has no origin latency *)
    if not (Float.is_nan fin) then begin
      Samples.add lat_w ((fin -. st.due_t.(s)) *. 1e3);
      quiet_w := (st.due_t.(s), (fin -. st.due_t.(s)) *. 1e3) :: !quiet_w;
      Samples.add lat_d ((fin -. st.call_t.(s)) *. 1e3)
    end;
    Samples.add late ((st.call_t.(s) -. st.due_t.(s)) *. 1e3);
    Samples.add call ((st.ret_t.(s) -. st.call_t.(s)) *. 1e6);
    spans :=
      {
        sp_id = s;
        sp_kind = 'b';
        sp_due = st.due_t.(s);
        sp_call = st.call_t.(s);
        sp_ret = st.ret_t.(s);
        sp_fin = st.fin_t.(s);
      }
      :: !spans
  done;
  let qw, qwn = quiet_p50 m.quiet !quiet_w in
  let na = [ "lin_read_p50_quiet_us"; "lin_read_p50_us"; "lin_read_p90_us"; "lin_read_p99_us"; "unavail_ms"; "catchup_ms" ] in
  let values =
    [
      ("setup_s", Some (median (m.setup_dt :: setups)), Some setup_reps);
      ("ops_per_s", Some (float_of_int m.ops /. seconds), Some m.ops);
    ]
    @ [ ("write_p50_quiet_ms", Some qw, Some qwn) ]
    @ percentiles "write" "ms" lat_w
    @ percentiles "deliver" "ms" lat_d
    @ [
        ("gen_late_p99_ms", Some (Samples.pct late 99.), Some (Samples.count late));
        ("failed_frac",
         Some (float_of_int !failed /. float_of_int (max attempted 1)),
         Some attempted);
        ("live.broadcast_call_us", Some (Samples.mean call), Some (Samples.count call));
        ("live.tx_oversize", Some (float_of_int m.oversize), None);
        ("live.rx_undecodable", Some (float_of_int m.undecodable), None);
        ("wal.fsync_us_p99", m.fsync, None);
      ]
    @ common_values ~ops:m.ops ~u:m.u ~s0:m.s0 ~s1:m.s1
    @ List.map (fun k -> (k, None, None)) na
  in
  {
    values;
    attempted;
    failed = !failed;
    errors = m.w_errors;
    trace_dir = (if trace then Some m.w_dir else None);
    rt_offset = m.w_offset;
    kill_at = None;
    spans = List.rev !spans;
    ops_per_instance = ops_per_instance m.s0 m.s1;
  }
