(* abcast-sim — command-line driver for the simulator.

   `abcast-sim run`     : one workload on one configured stack, with
                          optional fault injection and a flight-recorder
                          trace.
   `abcast-sim soak`    : many randomized crash/recovery episodes with the
                          correctness properties checked after each
                          (E9-style soak testing from the shell).
   `abcast-sim live`    : the same stacks over real UDP sockets and files.
   `abcast-sim service` : the client service layer under open-loop load —
                          exactly-once sessions, lease reads, SLO tables,
                          optional mid-run kill/restart with an
                          exactly-once audit at the end.
   `abcast-sim doctor`  : offline analysis of a live run directory —
                          merge the per-node crash flight recorders into
                          causal per-trace timelines, a stage-latency
                          table and anomaly flags; exits nonzero on
                          anomaly (CI guard). *)

module Rng = Abcast_util.Rng
module Net = Abcast_sim.Net
module Metrics = Abcast_sim.Metrics
module Durable = Abcast_store.Durable
module Flight = Abcast_sim.Flight
module Faults = Abcast_sim.Faults
module Factory = Abcast_core.Factory
module Protocol = Abcast_core.Protocol
module Cluster = Abcast_harness.Cluster
module Checks = Abcast_harness.Checks
module Workload = Abcast_harness.Workload
module Table = Abcast_harness.Table
module Kv = Abcast_apps.Kv
module Partitioned_kv = Abcast_apps.Partitioned_kv

(* A bad flag value is an input error: say which, and exit 3. *)
let bad_input fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 3) fmt

let parse_topo = function
  | "gossip" -> `Gossip
  | "ring" -> `Ring
  | s -> bad_input "unknown --topo %S (expected gossip|ring)" s

let parse_consensus = function
  | "paxos" -> `Paxos
  | "coord" -> `Coord
  | s -> bad_input "unknown --consensus %S (expected paxos|coord)" s

let parse_crash ~n s =
  let node, from_, until =
    match List.map int_of_string_opt (String.split_on_char ':' s) with
    | [ Some node; Some from_; Some until ] -> (node, from_, until)
    | [ Some node; Some from_ ] -> (node, from_, -1)
    | _ -> bad_input "bad --crash %S (expected NODE:FROM[:UNTIL] in µs)" s
  in
  if node < 0 || node >= n then
    bad_input "bad --crash %S (node %d is not in 0..%d)" s node (n - 1);
  (node, from_, until)

(* The stack flags parse into one protocol config. [window]: [None]
   keeps each preset's own (1 for alt, 4 for throughput); naive/ct/basic
   have no pipeline so the flag is ignored there, as is [--topo] for
   throughput/naive/ct. *)
let make_stack stack consensus checkpoint_period delta ~window ~topo ~shards
    ?(trace_sample = 0) () =
  let consensus = parse_consensus consensus in
  let dissemination = parse_topo topo in
  if shards < 1 then bad_input "bad --shards %d (must be >= 1)" shards;
  let tuned (c : Protocol.config) = { c with trace_sample } in
  let windowed (c : Protocol.config) =
    { c with window = Option.value window ~default:c.window }
  in
  let base =
    match stack with
    | "basic" ->
      Factory.make ~consensus
        (tuned { Protocol.paper_basic with dissemination })
    | "alt" ->
      Factory.make ~consensus
        (tuned
           (windowed
              {
                Protocol.paper_alternative with
                checkpoint_period = Some checkpoint_period;
                delta = Some delta;
                dissemination;
              }))
    | "throughput" ->
      Factory.make ~consensus (tuned (windowed Protocol.throughput))
    | "naive" -> Factory.make ~consensus Protocol.naive
    | "ct" -> Abcast_baseline.Ct_abcast.stack ~consensus ()
    | s ->
      bad_input "unknown --stack %S (expected basic|alt|throughput|naive|ct)" s
  in
  Factory.sharded ~shards base

(* Histogram series worth a row in the end-of-run latency table. *)
let is_latency_series name =
  List.exists
    (fun p -> String.starts_with ~prefix:p name)
    [ "stage."; "cons."; "wal_"; "lat_" ]

let parse_fsync s =
  match Durable.policy_of_string s with
  | Ok p -> p
  | Error msg -> bad_input "bad --fsync %S: %s" s msg

(* Default scratch directory of a command run without --dir. It starts
   empty: after PID reuse its nodes would otherwise recover an earlier
   run's WAL. *)
let fresh_scratch_dir prefix =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  Durable.rm_rf d;
  d

let run_cmd stack consensus window topo shards partitioned_kv n seed msgs loss
    dup crashes trace_on trace_out backend fsync check =
  let crashes = List.map (parse_crash ~n) crashes in
  (* Tracing samples every broadcast into per-node flight rings. The net
     model ignores message size and sampling draws no randomness, so a
     traced run keeps the untraced run's schedule. *)
  let tracing = trace_on || trace_out <> None in
  let stack_mod =
    make_stack stack consensus 50_000 4 ~window ~topo ~shards
      ~trace_sample:(if tracing then 1 else 0) ()
  in
  let flight =
    if tracing then Some (fun ~node:_ -> Flight.create ~cap:(32 * (msgs + 32)) ())
    else None
  in
  let net = Net.create ~loss ~dup () in
  let fsync = parse_fsync fsync in
  let storage_dir =
    (* The WAL needs a scratch directory (removed at exit); memory
       needs none. *)
    lazy
      (let d = fresh_scratch_dir "abcast-sim-run" in
       at_exit (fun () -> Durable.rm_rf d);
       d)
  in
  let storage =
    match backend with
    | "memory" -> None
    | "wal" ->
      Some
        (fun ~metrics ~node ->
          Abcast_sim.Storage.create
            ~dir:(Filename.concat (Lazy.force storage_dir)
                    (Printf.sprintf "node%d" node))
            ~fsync ~metrics ~node ())
    | s -> bad_input "unknown --backend %S (expected memory|wal)" s
  in
  let cluster = Cluster.create stack_mod ~seed ~n ~net ?storage ?flight () in
  List.iter
    (fun (node, from_, until) ->
      Cluster.at cluster from_ (fun () -> Cluster.crash cluster node);
      if until > from_ then
        Cluster.at cluster until (fun () -> Cluster.recover cluster node))
    crashes;
  let rng = Rng.create (seed + 1) in
  let stop = 1_000 + (msgs * 1_500) in
  let count =
    if partitioned_kv then begin
      (* KV-command workload: each command is pinned to the group that
         owns its key, so per-key order survives the sharding. *)
      let t = ref 1_000 in
      let c = ref 0 in
      while !t < stop do
        let key = Printf.sprintf "k%d" (Rng.int rng 200) in
        let cmd =
          if Rng.int rng 10 = 0 then Kv.del_cmd ~key
          else Kv.set_cmd ~key ~value:(Printf.sprintf "v%d" !c)
        in
        let group = Partitioned_kv.shard_of_key ~shards key in
        let node = Rng.int rng n in
        let at = !t in
        Cluster.at cluster at (fun () ->
            ignore (Cluster.broadcast cluster ~group ~node cmd));
        incr c;
        t := !t + 1 + int_of_float (Rng.exponential rng ~mean:1_500.0)
      done;
      !c
    end
    else
      Workload.open_loop cluster ~rng ~senders:(List.init n Fun.id)
        ~start:1_000 ~stop ~mean_gap:1_500 ~groups:shards ()
  in
  let ok =
    Cluster.run_until cluster ~until:2_000_000_000
      ~pred:(fun () ->
        Cluster.now cluster > stop
        && Cluster.all_caught_up cluster
             ~count:(List.length (Cluster.sent cluster))
             ())
      ()
  in
  let events =
    List.concat_map (fun i -> Flight.events (Cluster.flight cluster i))
      (List.init n Fun.id)
  in
  if trace_on then
    List.stable_sort (fun (x : Flight.event) y -> compare x.e_time y.e_time) events
    |> List.iter (Format.printf "%a@." Flight.pp_event);
  let m = Cluster.metrics cluster in
  Printf.printf
    "\nstack=%s seed=%d n=%d: %d broadcasts attempted, %d injected (the \
     rest hit a down process), %s\n"
    stack seed n count
    (List.length (Cluster.sent cluster))
    (if ok then Printf.sprintf "quiesced at %d µs" (Cluster.now cluster)
     else "DID NOT QUIESCE");
  Table.print
    {
      title = "per-process state";
      header = [ "process"; "up"; "round"; "delivered"; "unordered"; "log bytes" ];
      rows =
        List.init n (fun i ->
            [
              Table.num i;
              Text (if Cluster.is_up cluster i then "yes" else "no");
              Table.num (Cluster.round cluster i);
              Table.num (Cluster.delivered_count cluster i);
              Table.num (Cluster.unordered_count cluster i);
              Table.num (Cluster.retained_bytes cluster i);
            ]);
    };
  if shards > 1 then
    Table.print
      {
        title = "per-group delivered";
        header = "process" :: List.init shards (fun g -> Printf.sprintf "g%d" g);
        rows =
          List.init n (fun i ->
              Table.num i
              :: List.init shards (fun g ->
                     Table.num (Cluster.delivered_count ~group:g cluster i)));
      };
  let metric name v = [ Table.Text name; v ] in
  Table.print
    {
      title = "run totals";
      header = [ "metric"; "value" ];
      rows =
        [
          metric "net messages" (Table.num (Metrics.sum m "msgs_sent"));
          metric "log ops (consensus)"
            (Table.num (Metrics.sum_prefix m "log_ops.consensus"));
          metric "log ops (abcast)"
            (Table.num (Metrics.sum_prefix m "log_ops.abcast"));
          metric "mean delivery latency µs"
            (Table.flt (Metrics.mean m "lat_deliver"));
          metric "crashes" (Table.num (Metrics.sum m "crashes"));
          metric "state transfers"
            (Table.num (Metrics.sum m "state_transfers_applied"));
          metric "wal appends" (Table.num (Metrics.sum m "wal_appends"));
          metric "wal writes" (Table.num (Metrics.sum m "wal_writes"));
          metric "wal fsyncs" (Table.num (Metrics.sum m "wal_fsyncs"));
        ];
    };
  let lat_rows =
    List.filter_map
      (fun name ->
        if not (is_latency_series name) then None
        else
          match Metrics.hist_summary m name with
          | Some (s : Abcast_util.Histogram.summary) when s.count > 0 ->
            Some
              [
                Table.Text name;
                Table.num s.count;
                Table.flt s.p50;
                Table.flt s.p95;
                Table.flt s.p99;
                Table.flt s.max;
              ]
          | _ -> None)
      (Metrics.series_names m)
  in
  if lat_rows <> [] then
    Table.print
      {
        title = "latency histograms (µs unless noted, all processes)";
        header = [ "series"; "count"; "p50"; "p95"; "p99"; "max" ];
        rows = lat_rows;
      };
  (match trace_out with
  | Some path ->
    let oc = open_out path in
    output_string oc (Abcast_harness.Doctor.chrome_json events);
    close_out oc;
    Printf.printf "chrome trace written to %s (load in chrome://tracing)\n"
      path
  | None -> ());
  if partitioned_kv then begin
    (* Rebuild a partitioned replica per process from its group-wise
       delivery tails; equal digests witness partition-wise convergence. *)
    let up = List.filter (Cluster.is_up cluster) (List.init n Fun.id) in
    let digests =
      List.map
        (fun i ->
          let pkv = Partitioned_kv.create ~shards in
          for g = 0 to shards - 1 do
            List.iter
              (fun pl -> Partitioned_kv.deliver pkv ~group:g pl)
              (Cluster.delivered_tail ~group:g cluster i)
          done;
          (Partitioned_kv.digest pkv, Partitioned_kv.size pkv,
           Partitioned_kv.applied pkv))
        up
    in
    match digests with
    | [] -> ()
    | (d0, sz, ap) :: _ ->
      let agree = List.for_all (fun (d, _, _) -> d = d0) digests in
      Printf.printf
        "partitioned kv: %d commands applied over %d partitions, %d keys, \
         replicas convergent: %b\n"
        ap shards sz agree;
      if not agree then exit 1
  end;
  if check then begin
    match Checks.all ~cluster ~good:(List.init n Fun.id) () with
    | Ok () -> print_endline "properties: OK (validity, integrity, total order, termination)"
    | Error e ->
      Printf.eprintf "PROPERTY VIOLATION: %s\n" e;
      exit 1
  end;
  if not ok then exit 2

let soak_cmd stack consensus window topo n n_bad episodes seed0 =
  let violations = ref 0 in
  for e = 1 to episodes do
    let seed = seed0 + (e * 997) in
    let stack_mod =
      make_stack stack consensus 30_000 4 ~window ~topo ~shards:1 ()
    in
    let cluster = Cluster.create stack_mod ~seed ~n () in
    let lemmas = Abcast_harness.Lemmas.attach cluster () in
    let rng = Rng.create (seed + 31) in
    let stability = 150_000 in
    let plan = Faults.plan_random ~rng ~n ~n_bad ~stability () in
    Cluster.apply_faults cluster plan;
    ignore
      (Workload.open_loop cluster ~rng ~senders:(List.init n Fun.id)
         ~start:1_000 ~stop:stability ~mean_gap:4_000 ());
    Cluster.run cluster ~until:(plan.horizon + 4_000_000);
    let good = Faults.good_nodes plan in
    ignore (Cluster.settle cluster ~among:good);
    let combined =
      match Checks.all ~cluster ~good () with
      | Error _ as e -> e
      | Ok () -> (
        match Abcast_harness.Lemmas.report lemmas with
        | Error _ as e -> e
        | Ok () -> Abcast_harness.Lemmas.check_converged lemmas ~good)
    in
    (match combined with
    | Ok () ->
      Printf.printf "episode %3d (seed %7d): ok, %d delivered, %d crashes\n" e
        seed
        (Cluster.delivered_count cluster (List.hd good))
        (Metrics.sum (Cluster.metrics cluster) "crashes")
    | Error msg ->
      incr violations;
      Printf.printf "episode %3d (seed %7d): VIOLATION: %s\n" e seed msg)
  done;
  Printf.printf "\n%d episodes, %d violations\n" episodes !violations;
  if !violations > 0 then exit 1

(* SIGUSR1 = "dump your black box now": persist every node's flight
   recorder, so an operator can interrogate a live cluster without
   stopping it. *)
let install_sigusr1 rt =
  if Sys.os_type = "Unix" then
    ignore
      (Sys.signal Sys.sigusr1
         (Sys.Signal_handle (fun _ -> Abcast_live.Runtime.request_dump rt)))

let live_cmd stack consensus window topo shards partitioned_kv n msgs base_port
    fsync metrics_port trace_sample dir_opt min_rate =
  let stack_mod =
    make_stack stack consensus 100_000 3 ~window ~topo ~shards
      ~trace_sample:(max 0 trace_sample) ()
  in
  let fsync = parse_fsync fsync in
  let dir =
    match dir_opt with
    | Some d -> d
    | None -> fresh_scratch_dir "abcast-live-cli"
  in
  (* Per-node partitioned replicas, fed from the group-aware A-deliver
     upcall in each node's own thread; read only after convergence. *)
  let pkvs =
    if partitioned_kv then
      Some (Array.init n (fun _ -> Partitioned_kv.create ~shards))
    else None
  in
  let on_deliver =
    match pkvs with
    | Some arr ->
      fun ~node ~group pl -> Partitioned_kv.deliver arr.(node) ~group pl
    | None -> fun ~node:_ ~group:_ _ -> ()
  in
  match
    Abcast_live.Runtime.create stack_mod ~n ~base_port ~dir ~fsync
      ~on_deliver ?metrics_port ()
  with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "cannot create sockets: %s
" (Unix.error_message e);
    exit 3
  | live ->
    install_sigusr1 live;
    Fun.protect ~finally:(fun () -> Abcast_live.Runtime.shutdown live)
    @@ fun () ->
    Printf.printf
      "%d live processes on udp/127.0.0.1:%d.. (storage: %s, fsync: %s)
" n
      base_port dir
      (Durable.policy_to_string fsync);
    (match metrics_port with
    | Some p ->
      Printf.printf "metrics: http://127.0.0.1:%d/metrics (Prometheus text)\n"
        p
    | None -> ());
    let t0 = Unix.gettimeofday () in
    for j = 0 to msgs - 1 do
      if partitioned_kv then begin
        let key = Printf.sprintf "k%d" (j mod 97) in
        Abcast_live.Runtime.broadcast live
          ~group:(Partitioned_kv.shard_of_key ~shards key)
          ~node:(j mod n)
          (Kv.set_cmd ~key ~value:(Printf.sprintf "v%d" j))
      end
      else
        Abcast_live.Runtime.broadcast live ~node:(j mod n)
          (Printf.sprintf "m%d" j)
    done;
    let deadline = Unix.gettimeofday () +. 30.0 in
    let all () =
      List.for_all
        (fun i -> Abcast_live.Runtime.delivered_count live i >= msgs)
        (List.init n Fun.id)
    in
    while (not (all ())) && Unix.gettimeofday () < deadline do
      Thread.delay 0.02
    done;
    if not (all ()) then begin
      Printf.eprintf "did not converge within 30s
";
      exit 2
    end;
    let dt = Unix.gettimeofday () -. t0 in
    let rate = float_of_int msgs /. dt in
    let seqs =
      List.map (fun i -> Abcast_live.Runtime.delivered_data live i) (List.init n Fun.id)
    in
    let agree = List.for_all (fun s -> s = List.hd seqs) seqs in
    Printf.printf
      "%d messages totally ordered at %d processes in %.0f ms (%.0f msg/s);        orders identical: %b
"
      msgs n (dt *. 1000.0) rate agree;
    if shards > 1 then
      Table.print
        {
          title = "per-group delivered";
          header = "process" :: List.init shards (fun g -> Printf.sprintf "g%d" g);
          rows =
            List.init n (fun i ->
                Table.num i
                :: List.init shards (fun g ->
                       Table.num
                         (Abcast_live.Runtime.delivered_count ~group:g live i)));
        };
    (match pkvs with
    | Some arr ->
      let digests = Array.to_list (Array.map Partitioned_kv.digest arr) in
      let convergent = List.for_all (fun d -> d = List.hd digests) digests in
      Printf.printf
        "partitioned kv: %d keys per replica, replicas convergent: %b\n"
        (Partitioned_kv.size arr.(0))
        convergent;
      if not convergent then exit 1
    | None -> ());
    (* end-of-run observability summary: network drops + WAL counters *)
    Table.print
      {
        title = "per-process network, WAL and loop counters";
        header =
          [
            "process"; "tx oversize"; "rx undecodable"; "wal appends";
            "wal writes"; "wal fsyncs"; "loop passes"; "timer fires";
          ];
        rows =
          List.init n (fun i ->
              let ns = Abcast_live.Runtime.net_stats live i in
              let ctr name =
                match
                  List.assoc_opt name (Abcast_live.Runtime.node_counters live i)
                with
                | Some v -> Table.num v
                | None -> Table.Text "-"
              in
              [
                Table.num i;
                Table.num ns.Abcast_live.Runtime.tx_oversize;
                Table.num ns.Abcast_live.Runtime.rx_undecodable;
                ctr "wal_appends";
                ctr "wal_writes";
                ctr "wal_fsyncs";
                ctr "loop_passes";
                ctr "timer_fires";
              ]);
      };
    let lat_rows =
      List.concat_map
        (fun i ->
          Abcast_live.Runtime.hist_summaries live i
          |> List.filter (fun (name, _) -> is_latency_series name)
          |> List.map (fun (name, (s : Abcast_util.Histogram.summary)) ->
                 [
                   Table.num i;
                   Table.Text name;
                   Table.num s.count;
                   Table.flt s.p50;
                   Table.flt s.p95;
                   Table.flt s.max;
                 ]))
        (List.init n Fun.id)
    in
    if lat_rows <> [] then
      Table.print
        {
          title = "latency histograms (µs, per process)";
          header = [ "process"; "series"; "count"; "p50"; "p95"; "max" ];
          rows = lat_rows;
        };
    (match min_rate with
    | Some floor when rate < floor ->
      Printf.eprintf "throughput %.0f msg/s is below the --min-rate floor %.0f\n"
        rate floor;
      exit 1
    | _ -> ());
    if not agree then exit 1

let service_cmd n shards read_mode clients rate duration write_pct lin_pct
    lease_ms timeout base_port fsync kills seed trace_sample dir_opt
    metrics_port history_out min_rate =
  let module Service = Abcast_service.Service in
  let module Loadgen = Abcast_service.Loadgen in
  let module Runtime = Abcast_live.Runtime in
  let read_mode =
    match Service.read_mode_of_string read_mode with
    | Some m -> m
    | None ->
      bad_input "unknown --read-mode %S (expected broadcast|read-index)"
        read_mode
  in
  let fsync = parse_fsync fsync in
  let dir =
    match dir_opt with
    | Some d -> d
    | None -> fresh_scratch_dir "abcast-service-cli"
  in
  let cfg =
    {
      Service.n;
      shards;
      read_mode;
      lease_ms;
      max_sessions = max 4096 (2 * clients);
    }
  in
  match
    Service.create ~base_port ~dir ~fsync ~trace_sample:(max 0 trace_sample)
      ?metrics_port cfg
  with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "cannot create sockets: %s\n" (Unix.error_message e);
    exit 3
  | svc ->
    Fun.protect ~finally:(fun () -> Service.shutdown svc)
    @@ fun () ->
    let rt = Service.runtime svc in
    install_sigusr1 rt;
    Service.start svc;
    Printf.printf
      "service: %d processes, %d group(s), reads=%s, %d clients at %.0f \
       ops/s for %.1fs (storage: %s)\n%!"
      n shards
      (Service.read_mode_to_string read_mode)
      clients rate duration dir;
    (* fault schedule: one timer thread walks the kill/recover events *)
    let events =
      List.concat_map
        (fun (node, at, recover_at) ->
          (at, `Crash node)
          :: (if recover_at > at then [ (recover_at, `Recover node) ] else []))
        kills
      |> List.sort compare
    in
    let t0 = Unix.gettimeofday () in
    let killer =
      Thread.create
        (fun () ->
          List.iter
            (fun (at, ev) ->
              let d = t0 +. at -. Unix.gettimeofday () in
              if d > 0. then Thread.delay d;
              match ev with
              | `Crash node ->
                Printf.printf "[%.2fs] killing node %d\n%!" at node;
                Runtime.crash rt node;
                (* failover: hand the lease role to the next live node *)
                if read_mode = Service.Read_index
                   && Service.claimant svc = node
                then begin
                  let next = ref ((node + 1) mod n) in
                  while not (Runtime.is_up rt !next) && !next <> node do
                    next := (!next + 1) mod n
                  done;
                  Printf.printf "[%.2fs] claimant -> node %d\n%!" at !next;
                  Service.claim svc ~node:!next
                end
              | `Recover node ->
                Printf.printf "[%.2fs] recovering node %d\n%!" at node;
                Runtime.recover rt node)
            events)
        ()
    in
    let lcfg =
      { Loadgen.clients; rate; duration; write_pct; lin_pct; timeout; seed }
    in
    let hist =
      Option.map (fun path -> Abcast_sim.History.create ~path) history_out
    in
    let report = Loadgen.run ?history:hist svc lcfg in
    Option.iter Abcast_sim.History.close hist;
    (match history_out with
    | Some path ->
      Printf.printf "history: %d client ops captured to %s\n%!"
        (match hist with Some h -> Abcast_sim.History.events h | None -> 0)
        path
    | None -> ());
    Thread.join killer;
    let violations = Loadgen.audit svc report in
    let cls name (s : Abcast_util.Histogram.summary) =
      [
        Table.Text name;
        Table.num s.count;
        Table.flt ~dec:0 (float_of_int s.count /. report.Loadgen.wall);
        Table.flt s.p50;
        Table.flt s.p95;
        Table.flt s.p99;
        Table.flt s.max;
      ]
    in
    Table.print
      {
        title = "service SLOs (latency µs)";
        header = [ "class"; "count"; "ops/s"; "p50"; "p95"; "p99"; "max" ];
        rows =
          [
            cls "write" report.Loadgen.write;
            cls "lin read" report.Loadgen.lin;
            cls "stale read" report.Loadgen.stale;
          ];
      };
    let metric name v = [ Table.Text name; v ] in
    Table.print
      {
        title = "run totals";
        header = [ "metric"; "value" ];
        rows =
          [
            metric "issued" (Table.num report.Loadgen.issued);
            metric "completed" (Table.num report.Loadgen.completed);
            metric "retries" (Table.num report.Loadgen.retries);
            metric "shed (all clients busy)" (Table.num report.Loadgen.shed);
            metric "lease reads bounced" (Table.num report.Loadgen.not_ready);
            metric "failed (drain expired)" (Table.num report.Loadgen.failed);
            metric "wall seconds" (Table.flt report.Loadgen.wall);
          ];
      };
    Table.print
      {
        title = "per-process loop counters";
        header =
          [ "process"; "delivered"; "loop passes"; "timer fires"; "passes/msg" ];
        rows =
          List.init n (fun i ->
              let c = Runtime.node_counters rt i in
              let ctr name = Option.value ~default:0 (List.assoc_opt name c) in
              let delivered = Runtime.delivered_count rt i in
              [
                Table.num i;
                Table.num delivered;
                Table.num (ctr "loop_passes");
                Table.num (ctr "timer_fires");
                Table.flt
                  (float_of_int (ctr "loop_passes")
                  /. float_of_int (max 1 delivered));
              ]);
      };
    Printf.printf "exactly-once audit: %d violations\n"
      (List.length violations);
    List.iter (fun v -> Printf.eprintf "VIOLATION: %s\n" v) violations;
    if violations <> [] then exit 1;
    (match min_rate with
    | Some floor ->
      let rate = float_of_int report.Loadgen.completed /. report.Loadgen.wall in
      if rate < floor then begin
        Printf.eprintf
          "completed rate %.0f ops/s is below the --min-rate floor %.0f\n"
          rate floor;
        exit 1
      end
    | None -> ())

let doctor_cmd dir verbose max_traces min_complete audit =
  let module Doctor = Abcast_harness.Doctor in
  match Doctor.analyze ~max_traces ~audit ~dir () with
  | Error msg ->
    Printf.eprintf "doctor: %s\n" msg;
    exit 2
  | Ok r ->
    print_string (Doctor.render ~verbose r);
    let complete = Doctor.reconstructed r in
    let failed = ref false in
    if Doctor.has_anomalies r then begin
      Printf.eprintf "doctor: %d anomalies\n" (List.length r.Doctor.anomalies);
      failed := true
    end;
    if complete < min_complete then begin
      Printf.eprintf
        "doctor: only %d traces fully reconstructed (--min-complete %d)\n"
        complete min_complete;
      failed := true
    end;
    if !failed then exit 1

(* ---- cmdliner plumbing ---- *)
open Cmdliner

let stack_arg =
  Arg.(
    value
    & opt string "basic"
    & info [ "stack" ] ~doc:"basic|alt|throughput|naive|ct")

let consensus_arg =
  Arg.(value & opt string "paxos" & info [ "consensus" ] ~doc:"paxos|coord")

let window_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "window" ]
        ~doc:
          "consensus pipeline depth (alt and throughput stacks; defaults to \
           the stack's own: 1 for alt, 4 for throughput)")

let topo_arg =
  Arg.(
    value
    & opt string "gossip"
    & info [ "topo" ]
        ~doc:
          "dissemination topology for basic/alt: gossip|ring (the throughput \
           stack is always ring)")

let shards_arg =
  Arg.(
    value
    & opt int 1
    & info [ "shards" ]
        ~doc:
          "multiplex $(docv) independent broadcast groups over the stack \
           (one socket and one WAL per process; per-group total order, \
           near-linear aggregate throughput)"
        ~docv:"S")

let partitioned_kv_arg =
  Arg.(
    value
    & flag
    & info [ "partitioned-kv" ]
        ~doc:
          "drive a hash-partitioned replicated key-value store: commands \
           route to the group owning their key, and replica convergence is \
           checked partition-wise at the end")

let n_arg = Arg.(value & opt int 3 & info [ "n" ] ~doc:"number of processes")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"root RNG seed")

let run_t =
  let msgs = Arg.(value & opt int 50 & info [ "msgs" ] ~doc:"broadcast count") in
  let loss = Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"message loss probability") in
  let dup = Arg.(value & opt float 0.0 & info [ "dup" ] ~doc:"duplication probability") in
  let crashes =
    Arg.(value & opt_all string [] & info [ "crash" ] ~doc:"NODE:FROM[:UNTIL] fault (repeatable)")
  in
  let trace =
    Arg.(
      value
      & flag
      & info [ "trace" ]
          ~doc:
            "sample every broadcast into per-node flight recorders and print \
             the merged event timeline after the run")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ]
          ~doc:
            "sample every broadcast into per-node flight recorders and write \
             them as Chrome trace-event JSON to $(docv) (open in \
             chrome://tracing or Perfetto)"
          ~docv:"FILE")
  in
  let backend =
    Arg.(
      value
      & opt string "memory"
      & info [ "backend" ] ~doc:"storage backend: memory|wal")
  in
  let fsync =
    Arg.(
      value
      & opt string "every:64:20"
      & info [ "fsync" ] ~doc:"durability policy: always|never|every:OPS:MS")
  in
  let check = Arg.(value & flag & info [ "check" ] ~doc:"verify the four properties at the end") in
  Term.(
    const run_cmd $ stack_arg $ consensus_arg $ window_arg $ topo_arg
    $ shards_arg $ partitioned_kv_arg $ n_arg $ seed_arg $ msgs $ loss $ dup
    $ crashes $ trace $ trace_out $ backend $ fsync $ check)

let trace_sample_arg =
  Arg.(
    value
    & opt int 0
    & info [ "trace-sample" ]
        ~doc:
          "sample every $(docv)-th broadcast per process with a causal \
           trace id carried on the wire and stamped into each node's \
           flight recorder at every stage; 0 disables (zero wire bytes)"
        ~docv:"K")

let dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dir" ]
        ~doc:
          "storage directory (default: a fresh per-PID directory under \
           the system temp dir). Flight recorders persist to \
           $(docv)/node<i>/flight.bin — point `abcast-sim doctor` here \
           afterwards. Send the process SIGUSR1 to force an immediate \
           flight dump on a running cluster."
        ~docv:"DIR")

let live_t =
  let msgs = Arg.(value & opt int 30 & info [ "msgs" ] ~doc:"broadcast count") in
  let port = Arg.(value & opt int 7480 & info [ "port" ] ~doc:"UDP base port") in
  let fsync =
    Arg.(
      value
      & opt string "every:64:20"
      & info [ "fsync" ] ~doc:"durability policy: always|never|every:OPS:MS")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ]
          ~doc:"serve Prometheus text metrics on 127.0.0.1:$(docv)"
          ~docv:"PORT")
  in
  let min_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-rate" ]
          ~doc:
            "fail (exit 1) if end-to-end throughput lands below $(docv) \
             msg/s — a conservative CI floor, not a benchmark"
          ~docv:"MSG_PER_S")
  in
  Term.(
    const live_cmd $ stack_arg $ consensus_arg $ window_arg $ topo_arg
    $ shards_arg $ partitioned_kv_arg $ n_arg $ msgs $ port $ fsync
    $ metrics_port $ trace_sample_arg
    $ dir_arg $ min_rate)

let service_t =
  let clients =
    Arg.(value & opt int 200 & info [ "clients" ] ~doc:"concurrent client sessions")
  in
  let rate =
    Arg.(
      value
      & opt float 500.
      & info [ "rate" ] ~doc:"target aggregate arrival rate, ops/s (open loop)")
  in
  let duration =
    Arg.(value & opt float 5.0 & info [ "duration" ] ~doc:"seconds of load")
  in
  let read_mode =
    Arg.(
      value
      & opt string "broadcast"
      & info [ "read-mode" ]
          ~doc:
            "how linearizable reads are served: broadcast (a Get through \
             the total order) or read-index (local read under a leader \
             lease); stale reads are their own op class in either mode")
  in
  let write_pct =
    Arg.(value & opt int 50 & info [ "write-pct" ] ~doc:"percent of ops that are writes")
  in
  let lin_pct =
    Arg.(
      value
      & opt int 30
      & info [ "lin-pct" ]
          ~doc:"percent of ops that are linearizable reads (rest are stale)")
  in
  let lease_ms =
    Arg.(value & opt float 200. & info [ "lease-ms" ] ~doc:"read-index lease window, ms")
  in
  let timeout =
    Arg.(value & opt float 0.5 & info [ "timeout" ] ~doc:"per-attempt retry deadline, s")
  in
  let port = Arg.(value & opt int 7520 & info [ "port" ] ~doc:"UDP base port") in
  let fsync =
    Arg.(
      value
      & opt string "every:64:20"
      & info [ "fsync" ] ~doc:"durability policy: always|never|every:OPS:MS")
  in
  let kill_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ a; b; c ] ->
        Ok (int_of_string a, float_of_string b, float_of_string c)
      | [ a; b ] -> Ok (int_of_string a, float_of_string b, -1.)
      | _ -> Error (`Msg "expected NODE:AT[:RECOVER] in seconds")
      | exception _ -> Error (`Msg "expected NODE:AT[:RECOVER] in seconds")
    in
    let print ppf (a, b, c) = Format.fprintf ppf "%d:%g:%g" a b c in
    Arg.conv (parse, print)
  in
  let kills =
    Arg.(
      value
      & opt_all kill_conv []
      & info [ "kill" ]
          ~doc:
            "kill node NODE AT seconds into the run, optionally RECOVER it \
             later (repeatable); the lease role fails over automatically")
  in
  let min_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-rate" ]
          ~doc:"fail (exit 1) if the completed-op rate lands below $(docv)"
          ~docv:"OPS_PER_S")
  in
  let history_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "history-out" ]
          ~doc:
            "record every completed client op (kind, key, invocation and \
             response wall-clock, result) to the binary history file \
             $(docv) — feed it to `doctor --audit` together with the run \
             directory's flight dumps"
          ~docv:"FILE")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ]
          ~doc:
            "serve Prometheus metrics on 127.0.0.1:$(docv)/metrics, \
             including the per-class abcast_service_request_us request \
             histograms (class=write|lin|stale, labelled by shard group)"
          ~docv:"PORT")
  in
  Term.(
    const service_cmd $ n_arg $ shards_arg $ read_mode $ clients $ rate
    $ duration $ write_pct $ lin_pct $ lease_ms $ timeout $ port
    $ fsync $ kills $ seed_arg $ trace_sample_arg $ dir_arg $ metrics_port
    $ history_out $ min_rate)

let doctor_t =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ]
          ~doc:
            "run directory to analyze (the --dir of a live/service run) \
             holding the node<i>/flight.bin dumps"
          ~docv:"DIR")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"print every trace's timeline")
  in
  let max_traces =
    Arg.(
      value
      & opt int 64
      & info [ "max-traces" ] ~doc:"cap on traces reconstructed" ~docv:"N")
  in
  let min_complete =
    Arg.(
      value
      & opt int 0
      & info [ "min-complete" ]
          ~doc:
            "fail (exit 1) unless at least $(docv) sampled traces were \
             fully reconstructed end to end — the CI guard that a killed \
             node's black box still explains its final broadcasts"
          ~docv:"N")
  in
  let audit =
    Arg.(
      value
      & flag
      & info [ "audit" ]
          ~doc:
            "cross-check delivery chain hashes across nodes and merge any \
             *.history client captures in DIR, verifying real-time order \
             (a write acked before a linearizable read's invocation must \
             be visible in its result); divergence exits 1 naming the \
             node, group and position")
  in
  Term.(const doctor_cmd $ dir $ verbose $ max_traces $ min_complete $ audit)

let soak_t =
  let n_bad = Arg.(value & opt int 1 & info [ "bad" ] ~doc:"number of bad processes") in
  let episodes = Arg.(value & opt int 20 & info [ "episodes" ] ~doc:"number of episodes") in
  Term.(
    const soak_cmd $ stack_arg $ consensus_arg $ window_arg $ topo_arg $ n_arg
    $ n_bad $ episodes $ seed_arg)

let cmds =
  Cmd.group
    (Cmd.info "abcast-sim" ~doc:"crash-recovery atomic broadcast simulator")
    [
      Cmd.v (Cmd.info "run" ~doc:"run one workload on a configured stack") run_t;
      Cmd.v (Cmd.info "soak" ~doc:"randomized fault soak with property checks") soak_t;
      Cmd.v
        (Cmd.info "live"
           ~doc:"run the stack over real UDP sockets and file storage")
        live_t;
      Cmd.v
        (Cmd.info "service"
           ~doc:
             "drive the client service layer (exactly-once sessions, lease \
              reads) under open-loop load on a live cluster; SIGUSR1 dumps \
              the flight recorders without stopping it")
        service_t;
      Cmd.v
        (Cmd.info "doctor"
           ~doc:
             "analyze a live run directory offline: merge per-node flight \
              dumps into causal per-trace timelines, break latency into \
              stages, and flag protocol anomalies \
              (stuck instances, delivery gaps, dedup violations, lease \
              overlaps); exits non-zero on anomaly for CI use")
        doctor_t;
    ]

let () = exit (Cmd.eval cmds)
