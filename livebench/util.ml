(* Shared plumbing of the live benchmark: clocks, sample buffers, process
   resource probes, run directories, port choice, counter snapshots of
   the live runtime, and the metric registry that prints the result. *)

module Runtime = Abcast_live.Runtime
module Histogram = Abcast_util.Histogram

let now = Unix.gettimeofday

(* ---- sample buffers ---------------------------------------------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add s v =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0. in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- v;
    s.n <- s.n + 1

  let count s = s.n

  let sorted s =
    let b = Array.sub s.a 0 s.n in
    Array.sort Float.compare b;
    b

  (* nearest-rank percentile of a sorted array *)
  let pct_sorted b p =
    let n = Array.length b in
    if n = 0 then nan
    else
      let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      b.(max 0 (min (n - 1) (r - 1)))

  let pct s p = pct_sorted (sorted s) p

  let mean s =
    if s.n = 0 then nan
    else begin
      let acc = ref 0. in
      for i = 0 to s.n - 1 do
        acc := !acc +. s.a.(i)
      done;
      !acc /. float_of_int s.n
    end
end

(* [name_p50_unit], [name_p90_unit], [name_p99_unit] with the sample count. *)
let percentiles name unit_ s =
  let b = Samples.sorted s in
  let k = Samples.count s in
  List.map
    (fun p ->
      ( Printf.sprintf "%s_p%d_%s" name p unit_,
        Some (Samples.pct_sorted b (float_of_int p)),
        Some k ))
    [ 50; 90; 99 ]

let median l =
  match List.sort Float.compare l with
  | [] -> nan
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* ---- process probes ---------------------------------------------------- *)

let cpu_times () =
  let t = Unix.times () in
  (t.Unix.tms_utime, t.Unix.tms_stime)

(* Peak resident set of this process in MiB (Linux VmHWM). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Host CPU ticks from the first line of /proc/stat: (all, stolen). Steal
   is time the hypervisor ran other guests while this one had work; it
   slows every wall-clock figure and is reported beside them. *)
let host_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
    let l = try input_line ic with End_of_file -> "" in
    close_in ic;
    match List.filter (( <> ) "") (String.split_on_char ' ' l) with
    | "cpu" :: f ->
      let f = List.filter_map int_of_string_opt f in
      if List.length f >= 8 then Some (List.fold_left ( + ) 0 f, List.nth f 7)
      else None
    | _ -> None

(* Quiet slots of a timed window. A slot of [slot_s] seconds is quiet when
   the host stole no CPU tick from this guest during it or during the
   [quiet_guard] slots on either side. Steal is set by
   other guests on the machine, not by this program (it accrues only while
   this guest has work, and an idle guest sees none), and it adds to every
   wall-clock figure: runs with 0-2% steal agree on write latency within a
   few percent, runs with 12-20% steal read up to 70% slower. The bounded
   latency figures are taken over the ops that fell due in quiet slots.
   /proc/stat counts steal in 10-ms ticks; 20-ms slots leave some slots
   quiet even when a quarter of the CPU is stolen. The guard keeps out ops
   that fall due just before a steal, while they are still in flight, or
   just after one, behind the work it held up: without it, runs with 3-10%
   steal read 5-12% slower than runs with none, with it 2-6%. *)
let slot_s = 0.02
let quiet_guard = 2

(* Whether a wall-clock time lies in a quiet slot. *)
type quiet = float -> bool

(* Samples steal every [slot_s] on a thread of its own until [until]; the
   returned function joins it and gives the [quiet] predicate. *)
let steal_sampler ~until =
  let log = ref [] in
  let th =
    Thread.create
      (fun () ->
        let prev = ref (host_ticks ()) in
        while now () < until do
          Thread.delay slot_s;
          let cur = host_ticks () in
          (match (!prev, cur) with
          | Some (_, s0), Some (_, s1) -> log := (now (), s1 - s0) :: !log
          | _ -> ());
          prev := cur
        done)
      ()
  in
  fun () ->
    Thread.join th;
    let a = Array.of_list (List.rev !log) in
    let n = Array.length a in
    let quiet_at i =
      let ok = ref true in
      for j = max 0 (i - quiet_guard) to min (n - 1) (i + quiet_guard) do
        if snd a.(j) <> 0 then ok := false
      done;
      !ok
    in
    (* the slot ending first at or after [t] *)
    let in_quiet t =
      let rec bs lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if fst a.(mid) < t then bs (mid + 1) hi else bs lo mid
      in
      let i = bs 0 n in
      i < n && quiet_at i
    in
    in_quiet

(* Median of the latencies of ops due in quiet slots, or of all ops when
   no op fell due in one; [lat] is [(due, latency)], [infinity] for an op
   that failed. *)
let quiet_p50 (in_quiet : quiet) lat =
  let s = Samples.create () and all = Samples.create () in
  List.iter
    (fun (due, v) ->
      Samples.add all v;
      if in_quiet due then Samples.add s v)
    lat;
  let s = if Samples.count s > 0 then s else all in
  (Samples.pct s 50., Samples.count s)

(* ---- run directories and ports ----------------------------------------- *)

let runs_root = ".livebench_runs"

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

let rec mkdir_p p =
  if not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fresh, empty directory for one cluster, inside the working tree. *)
let fresh_dir name =
  let d =
    Filename.concat runs_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf d;
  mkdir_p d;
  d

let port_rng = Random.State.make_self_init ()

(* Create a cluster on a randomly chosen loopback port range, retrying on
   another range if one is taken. *)
let with_fresh_ports f =
  let rec go tries =
    let base = 20000 + (8 * Random.State.int port_rng 4000) in
    match f base with
    | v -> v
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when tries > 0 ->
      go (tries - 1)
  in
  go 20

(* ---- runtime counter snapshots ----------------------------------------- *)

(* Counters and histogram (count, sum) pairs summed over the up nodes. *)
type snap = {
  counters : (string, int) Hashtbl.t;
  hists : (string, int * float) Hashtbl.t;
}

let snapshot ?nodes rt =
  let s = { counters = Hashtbl.create 64; hists = Hashtbl.create 32 } in
  let nodes =
    match nodes with Some l -> l | None -> List.init (Runtime.n rt) Fun.id
  in
  List.iter (fun i ->
    List.iter
      (fun (k, v) ->
        let o = Option.value (Hashtbl.find_opt s.counters k) ~default:0 in
        Hashtbl.replace s.counters k (o + v))
      (Runtime.node_counters rt i);
    List.iter
      (fun (k, (h : Histogram.summary)) ->
        let c, sm =
          Option.value (Hashtbl.find_opt s.hists k) ~default:(0, 0.)
        in
        Hashtbl.replace s.hists k (c + h.count, sm +. h.sum))
      (Runtime.hist_summaries rt i))
    nodes;
  s

(* Pointwise sum of two snapshots: a crashed incarnation's last reading
   plus the new incarnation's counters cover the node's whole window. *)
let add_snap a b =
  let s = { counters = Hashtbl.copy a.counters; hists = Hashtbl.copy a.hists } in
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace s.counters k
        (v + Option.value (Hashtbl.find_opt s.counters k) ~default:0))
    b.counters;
  Hashtbl.iter
    (fun k (c, x) ->
      let c0, x0 = Option.value (Hashtbl.find_opt s.hists k) ~default:(0, 0.) in
      Hashtbl.replace s.hists k (c + c0, x +. x0))
    b.hists;
  s

let counter s k = Option.value (Hashtbl.find_opt s.counters k) ~default:0
let dcounter a b k = counter b k - counter a k

(* Mean of a histogram series over the interval between two snapshots. *)
let dmean a b k =
  let c0, s0 = Option.value (Hashtbl.find_opt a.hists k) ~default:(0, 0.) in
  let c1, s1 = Option.value (Hashtbl.find_opt b.hists k) ~default:(0, 0.) in
  if c1 > c0 then Some ((s1 -. s0) /. float_of_int (c1 - c0)) else None

(* ---- metric registry --------------------------------------------------- *)

type metric = {
  name : string;
  unit_ : string;
  value : float option;  (** [None] = the layer does no work here (n/a) *)
  samples : int option;  (** sample count behind a percentile or mean *)
}

let metrics : metric list ref = ref []

let put ?samples name unit_ value =
  let value = match value with Some v when Float.is_nan v -> None | v -> v in
  metrics := { name; unit_; value; samples } :: !metrics

let find_metric name = List.find_opt (fun m -> m.name = name) !metrics

let print_table title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-');
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14s %-6s %s\n" m.name
        (match m.value with
        | Some v when Float.is_finite v -> Printf.sprintf "%.4f" v
        | Some _ -> "inf"
        | None -> "n/a")
        m.unit_
        (match m.samples with Some n -> Printf.sprintf "(n=%d)" n | None -> ""))
    (List.rev !metrics)

let json_number v = Printf.sprintf "%.17g" v

(* Metric names and units are plain ASCII without quotes or escapes. *)
let json_string s = "\"" ^ s ^ "\""

(* [{"name": {"value": v, "unit": u}, ...}] for the given names, in order.
   A metric that is n/a here, or a percentile that falls on a failed op
   (infinite latency), reads null. *)
let json_metrics names =
  let field (name, unit_) =
    let v =
      match find_metric name with
      | Some { value = Some v; _ } when Float.is_finite v -> json_number v
      | _ -> "null"
    in
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) v
      (json_string unit_)
  in
  "{" ^ String.concat ", " (List.map field names) ^ "}"

(* ---- workload outcome --------------------------------------------------- *)

(* One request as the benchmark saw it, wall-clock seconds: when it fell
   due, when the call into the system was made and returned, and when
   its completion arrived ([nan] if never). *)
type span = {
  sp_id : int;
  sp_kind : char;  (** 'b' broadcast, 'w' write, 'l' lin read, 's' stale *)
  sp_due : float;
  sp_call : float;
  sp_ret : float;
  sp_fin : float;
}

type outcome = {
  values : (string * float option * int option) list;
      (** metric name, value ([None] = n/a), sample count *)
  attempted : int;
  failed : int;
  errors : string list;  (** failed output checks *)
  trace_dir : string option;  (** kept run directory of a traced run *)
  rt_offset : float;  (** wall-clock second at runtime time 0 *)
  kill_at : float option;  (** wall-clock time of the injected crash *)
  spans : span list;  (** requests due in the timed window *)
  ops_per_instance : float option;
}

let rt_us o t = (t -. o.rt_offset) *. 1e6

(* Write spans as TSV (times in runtime-clock µs) for offline reading. *)
let write_spans o path =
  let oc = open_out path in
  output_string oc "id\tkind\tdue_us\tcall_us\tret_us\tfin_us\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%c\t%.0f\t%.0f\t%.0f\t%s\n" s.sp_id s.sp_kind
        (rt_us o s.sp_due) (rt_us o s.sp_call) (rt_us o s.sp_ret)
        (if Float.is_nan s.sp_fin then "-"
         else Printf.sprintf "%.0f" (rt_us o s.sp_fin)))
    o.spans;
  close_out oc

(* CPU and GC readings; [usage_between] gives the work done in between.
   [live_words] is filled in separately: it needs a full heap walk, so
   it is read outside the timed window. *)
type usage = { user : float; sys : float; live_words : int; majors : int }

let usage () =
  let user, sys = cpu_times () in
  let g = Gc.quick_stat () in
  { user; sys; live_words = 0; majors = g.Gc.major_collections }

let live_words () = (Gc.stat ()).Gc.live_words

let usage_between a b =
  {
    user = b.user -. a.user;
    sys = b.sys -. a.sys;
    live_words = b.live_words - a.live_words;
    majors = b.majors - a.majors;
  }

(* End-to-end and per-layer figures every workload derives the same way
   from its timed window: [u] is the process usage over it and [s0]/[s1]
   the counter snapshots at its start and end. *)
let common_values ~ops ~(u : usage) ~s0 ~s1 =
  let fops = float_of_int (max ops 1) in
  let per_op x = Some (float_of_int x /. fops) in
  let per_kop x = Some (1000. *. float_of_int x /. fops) in
  let d k = dcounter s0 s1 k in
  let sent = d "state_sent" in
  [
    ("cpu_us_per_op", Some ((u.user +. u.sys) *. 1e6 /. fops), None);
    ("peak_rss_mb", Some (peak_rss_mb ()), None);
    ("live.sys_cpu_us_per_op", Some (u.sys *. 1e6 /. fops), None);
    ("protocol.broadcast_to_propose_us",
     dmean s0 s1 "stage.broadcast_to_propose_us", None);
    ("protocol.propose_to_adeliver_us",
     dmean s0 s1 "stage.propose_to_adeliver_us", None);
    ("protocol.gossip_bytes_per_op", per_op (d "gossip_bytes_sent"), None);
    ("protocol.need_per_kop", per_kop (d "rx.need"), None);
    ("protocol.state_sent_per_kop", per_kop sent, None);
    ("protocol.state_bytes_per_op", per_op (d "state_bytes_sent"), None);
    ("protocol.state_useful_ratio",
     (if sent > 0 then
        Some (float_of_int (d "state_transfers_applied") /. float_of_int sent)
      else None),
     Some sent);
    ("consensus.propose_to_decide_us",
     dmean s0 s1 "cons.propose_to_decide_us", None);
    ("wal.appends_per_op", per_op (d "wal_appends"), None);
    ("wal.fsyncs_per_op", per_op (d "wal_fsyncs"), None);
    ("wal.append_us", dmean s0 s1 "wal_append_us", None);
    ("gc.heap_words_per_op", Some (float_of_int u.live_words /. fops), None);
    ("gc.major_per_kop",
     per_kop u.majors, None);
  ]

(* Largest per-node p99 of the WAL fsync duration series (whole run). *)
let fsync_p99 rt =
  let best = ref None in
  for i = 0 to Runtime.n rt - 1 do
    List.iter
      (fun (k, (h : Histogram.summary)) ->
        if k = "wal_fsync_us" then
          best :=
            Some (match !best with Some b -> Float.max b h.p99 | None -> h.p99))
      (Runtime.hist_summaries rt i)
  done;
  !best

(* Σ Δ delivered / Σ Δ decided instances over the nodes. *)
let ops_per_instance s0 s1 =
  let c k s = fst (Option.value (Hashtbl.find_opt s.hists k) ~default:(0, 0.)) in
  let inst = c "cons.instance_us" s1 - c "cons.instance_us" s0 in
  if inst > 0 then
    Some (float_of_int (dcounter s0 s1 "ab_delivered") /. float_of_int inst)
  else None

(* A run sets a cluster up [setup_reps] times and reports the median
   set-up time; the last cluster set up is the one timed, for the whole of
   the run's seconds, so costs that grow with a cluster's age show. *)
let setup_reps = 3
