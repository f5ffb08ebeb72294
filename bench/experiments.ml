(* The experiment harness: E1-E9 reproduce the paper's evaluation claims
   and E10-E22 measure the extensions (EXPERIMENTS.md). Each experiment
   builds fresh simulations (everything is seeded, so the simulated
   columns are reproducible bit-for-bit) and returns its tables as data;
   bench/main.ml renders them as text or JSON. A must-hold check that
   fails raises instead of returning a table. *)

module Rng = Abcast_util.Rng
module Net = Abcast_sim.Net
module Metrics = Abcast_sim.Metrics
module Flight = Abcast_sim.Flight
module Faults = Abcast_sim.Faults
module Payload = Abcast_core.Payload
module Factory = Abcast_core.Factory
module Protocol = Abcast_core.Protocol
module Proto = Abcast_core.Proto
module Cluster = Abcast_harness.Cluster
module Checks = Abcast_harness.Checks
module Workload = Abcast_harness.Workload
module Table = Abcast_harness.Table
module Kv = Abcast_apps.Kv

let quick = ref false

let scale n = if !quick then max 1 (n / 4) else n

(* Run until every process has delivered [count] broadcasts. *)
let quiesce cluster ~count what =
  if
    not
      (Cluster.run_until cluster ~until:1_000_000_000
         ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
         ())
  then failwith (what ^ " did not quiesce")

(* Drive [msgs] Poisson broadcasts on a fresh cluster of the stack and run
   to quiescence. Returns the cluster and the message count. *)
let steady_run ?(n = 3) ?(seed = 7) ?(msgs = 200) ?(mean_gap = 1_500) ?net
    ?(size = 32) ?count_bytes ?flight stack =
  let cluster = Cluster.create stack ~seed ~n ?net ?count_bytes ?flight () in
  let rng = Rng.create (seed * 13) in
  let count =
    Workload.open_loop cluster ~rng ~senders:(List.init n Fun.id) ~start:1_000
      ~stop:(1_000 + (msgs * mean_gap))
      ~mean_gap ~size ()
  in
  quiesce cluster ~count "steady run";
  (cluster, count)

(* One warm-up run, then [k] timed runs: the result of the last and the
   best host wall time. The runs are seeded, so they differ only in host
   noise and the minimum is the least noise-contaminated estimate. *)
let best_of k go =
  ignore (go ());
  let best = ref infinity and last = ref None in
  for _ = 1 to k do
    let t0 = Unix.gettimeofday () in
    let r = go () in
    best := Float.min !best (Unix.gettimeofday () -. t0);
    last := Some r
  done;
  (Option.get !last, !best)

(* A saturating burst of [msgs] 64-byte payloads spread over all [n]
   processes at t = 1 ms, drained to quiescence with byte accounting on:
   the drained cluster and the best of 5 host wall times. *)
let drain_burst ~seed ~rng_seed ~n ~msgs stack =
  best_of 5 (fun () ->
      let cluster = Cluster.create stack ~seed ~n ~count_bytes:true () in
      Workload.burst cluster ~rng:(Rng.create rng_seed)
        ~senders:(List.init n Fun.id) ~at:1_000 ~count:msgs ~size:64 ();
      quiesce cluster ~count:msgs "burst";
      cluster)

(* Drained payloads per simulated second of a burst offered at t = 1 ms. *)
let drain_rate cluster ~msgs =
  float_of_int msgs /. (float_of_int (Cluster.now cluster - 1_000) /. 1e6)

let bytes_per_msg cluster ~msgs =
  float_of_int (Metrics.sum (Cluster.metrics cluster) "net_bytes")
  /. float_of_int msgs

(* ------------------------------------------------------------------ *)
(* E1 — log operations per delivered message (paper §4.3).             *)

let e1 () =
  let msgs = scale 200 in
  let row name stack =
    let cluster, count = steady_run ~msgs stack in
    let m = Cluster.metrics cluster in
    let cons = Metrics.sum_prefix m "log_ops.consensus" in
    let ab = Metrics.sum_prefix m "log_ops.abcast" in
    let rounds = Cluster.round cluster 0 in
    let total = float_of_int (cons + ab) /. float_of_int count in
    ( (cons, ab, total),
      [
        Table.Text name;
        Table.num count;
        Table.num rounds;
        Table.num cons;
        Table.num ab;
        Table.flt (float_of_int ab /. float_of_int count);
        Table.flt total;
      ] )
  in
  let (_, basic_ab, basic_ops), basic =
    row "basic/paxos (minimal)" (Factory.make Protocol.paper_basic)
  in
  let (_, _, alt_ops), alt =
    row "alt/paxos (checkpoints)" (Factory.make Protocol.paper_alternative)
  in
  let (_, _, naive_ops), naive =
    row "naive/paxos (strawman)" (Factory.make Protocol.naive)
  in
  let (ct_cons, ct_ab, _), ct =
    row "ct-stop/paxos (no crash-recovery)" (Abcast_baseline.Ct_abcast.stack ())
  in
  (* The §4.3 claim: the basic protocol logs nothing beyond consensus,
     the checkpointing variant costs more and the log-everything
     strawman most; the crash-stop baseline logs nothing at all. *)
  if
    not
      (basic_ab = 0 && ct_cons + ct_ab = 0 && basic_ops < alt_ops
     && alt_ops < naive_ops)
  then
    failwith
      (Printf.sprintf
         "E1: paper claim (section 4.3) broken: basic ops(abcast) = %d, \
          ct-stop log ops = %d, total ops/msg basic %.2f, alt %.2f, naive \
          %.2f (need 0, 0 and basic < alt < naive)"
         basic_ab (ct_cons + ct_ab) basic_ops alt_ops naive_ops);
  [
    {
      Table.title =
        "E1: log operations by layer (n=3, crash-free; paper claim: the basic \
         protocol adds ZERO log ops beyond consensus)";
      header =
        [ "stack"; "msgs"; "rounds"; "ops(consensus)"; "ops(abcast)";
          "abcast ops/msg"; "total ops/msg" ];
      rows = [ basic; alt; naive; ct ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* E2 — recovery cost vs. history length (paper §5.1).                 *)

let e2 () =
  let variants =
    [
      ("basic (full replay)", fun () -> Factory.make Protocol.paper_basic);
      ( "alt, checkpoint 50ms",
        fun () ->
          Factory.make
            { Protocol.paper_alternative with checkpoint_period = Some 50_000 }
      );
      ( "alt, checkpoint 200ms",
        fun () ->
          Factory.make
            { Protocol.paper_alternative with checkpoint_period = Some 200_000 }
      );
    ]
  in
  let rows =
    List.concat_map
      (fun msgs ->
        List.map
          (fun (name, mk) ->
            let cluster, _ = steady_run ~seed:11 ~msgs ~mean_gap:1_200 (mk ()) in
            let rounds = Cluster.round cluster 1 in
            Cluster.crash cluster 1;
            let t0 = Sys.time () in
            Cluster.recover cluster 1;
            let host_ms = (Sys.time () -. t0) *. 1_000.0 in
            let replayed =
              Metrics.get (Cluster.metrics cluster) ~node:1 "replay_rounds"
            in
            [
              Table.num msgs;
              Table.Text name;
              Table.num rounds;
              Table.num replayed;
              Table.flt ~dec:3 host_ms;
            ])
          variants)
      [ scale 100; scale 200; scale 400 ]
  in
  [
    {
      Table.title =
        "E2: recovery cost vs history length (crash after the run, then \
         recover; paper claim: checkpoints make replay O(since-checkpoint) \
         instead of O(history))";
      header = [ "msgs"; "stack"; "rounds"; "replayed rounds"; "host ms" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* E3 — stable-storage footprint vs time (paper §5.2).                 *)

let e3 () =
  let kv_factory replicas =
    Kv.Replica.factory (fun i r -> replicas.(i) <- Some r)
  in
  let run name stack =
    let cluster = Cluster.create stack ~seed:17 ~n:3 () in
    let rng = Rng.create 23 in
    let msgs = scale 240 in
    ignore
      (Workload.open_loop cluster ~rng ~senders:[ 0; 1; 2 ] ~start:1_000
         ~stop:(msgs * 1_000) ~mean_gap:1_000 ~size:64 ());
    let samples = ref [] in
    List.iter
      (fun frac ->
        Cluster.at cluster (frac * msgs * 1_000 / 4) (fun () ->
            samples := (frac, Cluster.retained_bytes cluster 0) :: !samples))
      [ 1; 2; 3; 4 ];
    (* run well past the workload so checkpoints compact the idle state,
       then sample the durable footprint a recovering process would see *)
    Cluster.run cluster ~until:((msgs * 1_000) + 400_000);
    samples := (5, Cluster.retained_bytes cluster 0) :: !samples;
    (name, List.rev !samples)
  in
  let replicas = Array.make 3 None in
  let series =
    [
      run "basic (log grows)" (Factory.make Protocol.paper_basic);
      run "alt, no app checkpoint"
        (Factory.make
           { Protocol.paper_alternative with checkpoint_period = Some 60_000 });
      run "alt + KV app checkpoint"
        (Factory.make ~app_factory:(kv_factory replicas)
           { Protocol.paper_alternative with checkpoint_period = Some 60_000 });
    ]
  in
  let rows =
    List.map
      (fun (name, samples) ->
        Table.Text name :: List.map (fun (_, bytes) -> Table.num bytes) samples)
      series
  in
  [
    {
      Table.title =
        "E3: retained stable-storage bytes at node 0 over time (paper claim: \
         application-level checkpoints keep the log bounded)";
      header = [ "stack"; "t=25%"; "t=50%"; "t=75%"; "t=100%"; "idle+ckpt" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* E4 — catching up: consensus replay vs state transfer (paper §5.3).  *)

let e4 () =
  let episode ~stack ~down_ms =
    let cluster = Cluster.create stack ~seed:29 ~n:3 () in
    let rng = Rng.create 31 in
    Cluster.at cluster 2_000 (fun () -> Cluster.crash cluster 2);
    let stop = 2_000 + (down_ms * 1_000) in
    let count =
      Workload.open_loop cluster ~rng ~senders:[ 0; 1 ] ~start:3_000 ~stop
        ~mean_gap:1_000 ()
    in
    Cluster.at cluster (stop + 1_000) (fun () -> Cluster.recover cluster 2);
    let recover_at = stop + 1_000 in
    quiesce cluster ~count "E4 episode";
    let catch_up_ms = (Cluster.now cluster - recover_at) / 1_000 in
    let transfers = Metrics.sum (Cluster.metrics cluster) "state_transfers_applied" in
    let rounds_missed = Cluster.round cluster 0 in
    (rounds_missed, catch_up_ms, transfers)
  in
  let rows =
    List.concat_map
      (fun down_ms ->
        List.map
          (fun (name, stack) ->
            let missed, ms, transfers = episode ~stack ~down_ms in
            [
              Table.num down_ms;
              Table.num missed;
              Table.Text name;
              Table.num ms;
              Table.num transfers;
            ])
          [
            ( "state transfer (alt, delta=3)",
              Factory.make
                {
                  Protocol.paper_alternative with
                  delta = Some 3;
                  checkpoint_period = Some 40_000;
                  early_return = false;
                } );
            ( "replay missed consensus (basic)",
              Factory.make Protocol.paper_basic );
          ])
      [ scale 40; scale 80; scale 160 ]
  in
  (* Δ sweep: how much de-synchronization triggers a transfer (§5.3 line d) *)
  let sweep =
    List.map
      (fun delta ->
        let missed, ms, transfers =
          episode
            ~stack:
              (Factory.make
                 {
                   Protocol.paper_alternative with
                   delta = Some delta;
                   checkpoint_period = Some 2_000_000;
                   early_return = false;
                 })
            ~down_ms:(scale 120)
        in
        [ Table.num delta; Table.num missed; Table.num ms; Table.num transfers ])
      [ 1; 4; 16; 64 ]
  in
  (* §5.3 closing remark: ship only what the recipient is missing *)
  let bytes_row (name, trim_state) =
    let stack =
      Factory.make
        {
          Protocol.paper_alternative with
          delta = Some 3;
          checkpoint_period = Some 2_000_000;
          early_return = false;
          trim_state;
        }
    in
    let cluster = Cluster.create stack ~seed:71 ~n:3 () in
    let rng = Rng.create 73 in
    (* down for the last quarter only: most of the log is already there *)
    let horizon = scale 160 * 1_000 in
    Cluster.at cluster (3 * horizon / 4) (fun () -> Cluster.crash cluster 2);
    let count =
      Workload.open_loop cluster ~rng ~senders:[ 0; 1 ] ~start:1_000
        ~stop:horizon ~mean_gap:1_000 ()
    in
    Cluster.at cluster (horizon + 1_000) (fun () -> Cluster.recover cluster 2);
    quiesce cluster ~count "E4c";
    let m = Cluster.metrics cluster in
    [
      Table.Text name;
      Table.num count;
      Table.num (Metrics.sum m "state_sent");
      Table.num (Metrics.sum m "state_bytes_sent");
    ]
  in
  [
    {
      Table.title =
        "E4: catch-up after a long down-time (paper claim: state transfer \
         catches up in O(1) rounds; re-running missed consensus grows with \
         the gap)";
      header =
        [ "down ms"; "rounds run"; "catch-up path"; "catch-up ms";
          "state transfers" ];
      rows;
    };
    {
      title =
        "E4b: tuning delta (fixed down-time; small delta = eager transfer, \
         large delta = catch up by re-running consensus)";
      header = [ "delta"; "rounds run"; "catch-up ms"; "state transfers" ];
      rows = sweep;
    };
    {
      title =
        "E4c: state-transfer payload, full snapshot vs missing-suffix only \
         (the optimization the paper sketches at the end of 5.3)";
      header = [ "mode"; "msgs"; "state msgs sent"; "state bytes sent" ];
      rows =
        [ bytes_row ("full snapshot", false); bytes_row ("suffix only", true) ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* E5 — throughput and batching (paper §5.4).                          *)

let e5 () =
  let total = scale 300 in
  let row stack_name stack pipeline =
    let cluster = Cluster.create stack ~seed:37 ~n:3 () in
    let rng = Rng.create 41 in
    for node = 0 to 2 do
      Workload.closed_loop cluster ~rng ~node ~total:(total / 3) ~pipeline ()
    done;
    quiesce cluster ~count:(3 * (total / 3)) "E5";
    let m = Cluster.metrics cluster in
    let dur_s = float_of_int (Cluster.now cluster) /. 1_000_000.0 in
    let delivered = 3 * (total / 3) in
    let rounds = Cluster.round cluster 0 in
    [
      Table.Text stack_name;
      Table.num pipeline;
      Table.flt (float_of_int delivered /. dur_s);
      Table.flt (float_of_int delivered /. float_of_int rounds);
      Table.flt ~dec:1 (Metrics.mean m "lat_deliver" /. 1_000.0);
      Table.flt ~dec:1 (Metrics.percentile m "lat_deliver" 95.0 /. 1_000.0);
    ]
  in
  let rows =
    List.concat_map
      (fun pipeline ->
        [
          row "basic (blocking)" (Factory.make Protocol.paper_basic) pipeline;
          row "alt (early return)"
            (Factory.make
               { Protocol.paper_alternative with early_return = true })
            pipeline;
        ])
      [ 1; 4; 16; 64 ]
  in
  [
    {
      Table.title =
        "E5: throughput vs client pipelining (3 closed-loop clients; paper \
         claim: batching messages into one consensus raises throughput)";
      header =
        [ "stack"; "pipeline"; "msgs/s (sim)"; "batch (msgs/round)";
          "mean lat ms"; "p95 lat ms" ];
      rows;
    };
  ]

(* E5b — drain time for an instantaneous burst: batching means the whole
   burst should cost a near-constant number of consensus rounds. *)

let e5b () =
  let burst_size = scale 200 in
  let row name stack =
    let cluster = Cluster.create stack ~seed:101 ~n:3 () in
    let rng = Rng.create 103 in
    Workload.burst cluster ~rng ~senders:[ 0; 1; 2 ] ~at:1_000
      ~count:burst_size ();
    quiesce cluster ~count:burst_size "E5b";
    [
      Table.Text name;
      Table.num burst_size;
      Table.num (Cluster.now cluster - 1_000);
      Table.num (Cluster.round cluster 0);
      Table.flt (float_of_int burst_size /. float_of_int (Cluster.round cluster 0));
    ]
  in
  [
    {
      Table.title =
        "E5b: draining an instantaneous burst (batching at work: the whole \
         burst fits in a handful of consensus rounds)";
      header = [ "stack"; "burst"; "drain us"; "rounds"; "batch" ];
      rows =
        [
          row "basic" (Factory.make Protocol.paper_basic);
          row "alt" (Factory.make Protocol.paper_alternative);
          row "alt, window=4"
            (Factory.make { Protocol.paper_alternative with window = 4 });
        ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* E6 — incremental logging (paper §5.5).                              *)

let e6 () =
  let row name incremental =
    (* checkpointing disabled (huge period) so the table isolates the
       cost of keeping the Unordered set durable *)
    let stack =
      Factory.make
        {
          Protocol.paper_alternative with
          early_return = true;
          incremental;
          checkpoint_period = Some 1_000_000_000;
        }
    in
    let cluster, count = steady_run ~seed:43 ~msgs:(scale 200) ~size:64 stack in
    let m = Cluster.metrics cluster in
    let ops = Metrics.sum_prefix m "log_ops.abcast" in
    let bytes = Metrics.sum_prefix m "log_bytes.abcast" in
    [
      Table.Text name;
      Table.num count;
      Table.num ops;
      Table.num bytes;
      Table.flt (float_of_int bytes /. float_of_int count);
    ]
  in
  [
    {
      Table.title =
        "E6: logging the Unordered set, full re-log vs incremental (paper \
         claim: logging only the new part saves log operations and bytes)";
      header =
        [ "mode"; "msgs"; "abcast log ops"; "abcast log bytes"; "bytes/msg" ];
      rows = [ row "full re-log" false; row "incremental" true ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* E7 — cost of crash-recovery support vs crash-stop CT (paper §1/§7). *)

let e7 () =
  let msgs = scale 150 in
  let rows =
    List.concat_map
      (fun n ->
        let run stack =
          let cluster, count = steady_run ~n ~seed:47 ~msgs stack in
          let m = Cluster.metrics cluster in
          ( Metrics.sum m "msgs_sent",
            Metrics.sum_prefix m "log_ops",
            Metrics.mean m "lat_deliver" /. 1_000.0,
            count )
        in
        let bm, bl, blat, count = run (Factory.make Protocol.paper_basic) in
        let cm, cl, clat, _ = run (Abcast_baseline.Ct_abcast.stack ()) in
        [
          [
            Table.num n;
            Table.Text "basic/paxos (crash-recovery)";
            Table.num count;
            Table.num bm;
            Table.num bl;
            Table.flt ~dec:1 blat;
          ];
          [
            Table.num n;
            Table.Text "ct-stop/paxos (crash-stop)";
            Table.num count;
            Table.num cm;
            Table.num cl;
            Table.flt ~dec:1 clat;
          ];
        ])
      [ 3; 5; 7 ]
  in
  [
    {
      Table.title =
        "E7: crash-free runs vs the Chandra-Toueg crash-stop reduction (paper \
         claim: same protocol structure; the entire crash-recovery premium is \
         the logging)";
      header = [ "n"; "stack"; "msgs"; "net msgs"; "log ops"; "mean lat ms" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* E8 — consensus as a black box (paper §1/§7).                        *)

let e8 () =
  let msgs = scale 150 in
  let row name stack =
    let cluster, count = steady_run ~seed:53 ~msgs stack in
    let m = Cluster.metrics cluster in
    [
      Table.Text name;
      Table.num count;
      Table.num (Cluster.round cluster 0);
      Table.num (Metrics.sum m "msgs_sent");
      Table.num (Metrics.sum_prefix m "log_ops.consensus");
      Table.num (Metrics.sum_prefix m "log_ops.abcast");
      Table.flt ~dec:1 (Metrics.mean m "lat_deliver" /. 1_000.0);
    ]
  in
  [
    {
      Table.title =
        "E8: swapping the consensus building block (paper claim: the \
         broadcast layer is consensus- and FD-agnostic; only consensus-\
         internal costs change)";
      header =
        [ "stack"; "msgs"; "rounds"; "net msgs"; "ops(consensus)";
          "ops(abcast)"; "mean lat ms" ];
      rows =
        [
          row "basic over paxos (leader-based, Omega FD)"
            (Factory.make Protocol.paper_basic);
          row "basic over coord (rotating coordinator, no FD)"
            (Factory.make ~consensus:`Coord Protocol.paper_basic);
          row "alt over paxos" (Factory.make Protocol.paper_alternative);
          row "alt over coord"
            (Factory.make ~consensus:`Coord Protocol.paper_alternative);
        ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* E9 — correctness under adversarial schedules (paper §2.2, P1-P7).   *)

let e9 () =
  let episodes = scale 12 in
  let run_episode stack seed =
    let n = 3 in
    let cluster = Cluster.create stack ~seed ~n () in
    let rng = Rng.create (seed + 7777) in
    let stability = 150_000 in
    let plan = Faults.plan_random ~rng ~n ~n_bad:1 ~stability () in
    let good = Faults.good_nodes plan in
    List.iter
      (fun ({ time; node; kind } : Faults.event) ->
        match kind with
        | Faults.Crash ->
          Cluster.at cluster time (fun () -> Cluster.crash cluster node)
        | Faults.Recover ->
          Cluster.at cluster time (fun () -> Cluster.recover cluster node))
      plan.events;
    ignore
      (Workload.open_loop cluster ~rng ~senders:(List.init n Fun.id)
         ~start:1_000 ~stop:stability ~mean_gap:4_000 ());
    Cluster.run cluster ~until:(plan.horizon + 4_000_000);
    let crashes = Metrics.sum (Cluster.metrics cluster) "crashes" in
    let delivered = Cluster.delivered_count cluster (List.hd good) in
    (crashes, delivered, Checks.all ~cluster ~good ())
  in
  let first_violation = ref None in
  let rows =
    List.map
      (fun (name, stack) ->
        let crashes = ref 0 and delivered = ref 0 and violations = ref 0 in
        for seed = 1 to episodes do
          let c, d, verdict = run_episode stack (seed * 271) in
          crashes := !crashes + c;
          delivered := !delivered + d;
          match verdict with
          | Ok () -> ()
          | Error e ->
            incr violations;
            if !first_violation = None then
              first_violation :=
                Some (Printf.sprintf "%s, seed %d: %s" name (seed * 271) e)
        done;
        [
          Table.Text name;
          Table.num episodes;
          Table.num !crashes;
          Table.num !delivered;
          Table.num !violations;
        ])
      [
        ("basic/paxos", Factory.make Protocol.paper_basic);
        ("basic/coord", Factory.make ~consensus:`Coord Protocol.paper_basic);
        ( "alt/paxos",
          Factory.make
            {
              Protocol.paper_alternative with
              checkpoint_period = Some 30_000;
              delta = Some 4;
            } );
      ]
  in
  Option.iter
    (fun v -> failwith ("E9: property violated: " ^ v))
    !first_violation;
  [
    {
      Table.title =
        "E9: randomized crash/recovery schedules, 1 bad process of 3 \
         (Validity + Integrity + Total Order + Termination checked over good \
         processes; paper claim: zero violations)";
      header =
        [ "stack"; "episodes"; "crashes injected"; "msgs delivered"; "violations" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* E10 — ablation: windowed (pipelined) sequencer. An extension beyond  *)
(* the paper: the sequencer task of Fig. 2 runs one consensus at a      *)
(* time; allowing a window of concurrent instances hides consensus      *)
(* latency under load.                                                  *)

let e10 () =
  let msgs = scale 400 in
  let row window =
    let stack =
      Factory.make
        {
          Protocol.paper_alternative with
          window;
          early_return = true;
          checkpoint_period = Some 1_000_000_000;
        }
    in
    let cluster = Cluster.create stack ~seed:59 ~n:3 () in
    let rng = Rng.create 61 in
    (* offered load well above one-consensus-at-a-time capacity *)
    let count =
      Workload.open_loop cluster ~rng ~senders:[ 0; 1; 2 ] ~start:1_000
        ~stop:(1_000 + (msgs * 150))
        ~mean_gap:150 ()
    in
    quiesce cluster ~count "E10";
    let m = Cluster.metrics cluster in
    let dur_s = float_of_int (Cluster.now cluster) /. 1_000_000.0 in
    [
      Table.num window;
      Table.num (Cluster.round cluster 0);
      Table.flt (float_of_int count /. dur_s);
      Table.flt ~dec:1 (Metrics.mean m "lat_deliver" /. 1_000.0);
      Table.flt ~dec:1 (Metrics.percentile m "lat_deliver" 95.0 /. 1_000.0);
    ]
  in
  [
    {
      Table.title =
        "E10 (extension ablation): concurrent consensus window under heavy \
         open-loop load (paper's sequencer = window 1)";
      header = [ "window"; "rounds"; "msgs/s (sim)"; "mean lat ms"; "p95 lat ms" ];
      rows = List.map row [ 1; 2; 4; 8 ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* E11 — scalability with the group size (context for all the above:    *)
(* the protocol's costs are consensus-dominated and grow with n).       *)

let e11 () =
  let msgs = scale 120 in
  let row n =
    let cluster, count =
      steady_run ~n ~seed:67 ~msgs (Factory.make Protocol.paper_basic)
    in
    let m = Cluster.metrics cluster in
    let net_msgs = Metrics.sum m "msgs_sent" in
    [
      Table.num n;
      Table.num count;
      Table.num (Cluster.round cluster 0);
      Table.num net_msgs;
      Table.flt (float_of_int net_msgs /. float_of_int count);
      Table.flt
        (float_of_int (Metrics.sum_prefix m "log_ops") /. float_of_int count);
      Table.flt ~dec:1 (Metrics.mean m "lat_deliver" /. 1_000.0);
      Table.flt ~dec:1 (Metrics.percentile m "lat_deliver" 95.0 /. 1_000.0);
    ]
  in
  [
    {
      Table.title =
        "E11: scaling the process group (basic/paxos, fixed offered load; \
         message cost grows ~n^2 per round, latency stays ~flat while a \
         majority answers quickly)";
      header =
        [ "n"; "msgs"; "rounds"; "net msgs"; "net msgs/msg"; "log ops/msg";
          "mean lat ms"; "p95 lat ms" ];
      rows = List.map row [ 3; 5; 7; 9 ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* E12 — failure-detector quality of service (context for §3.5): the    *)
(* detection-time / false-suspicion trade-off of the heartbeat Omega.    *)

let e12 () =
  let module Engine = Abcast_sim.Engine in
  let module Heartbeat = Abcast_fd.Heartbeat in
  let row period =
    let timeout = 5 * period in
    (* an aggressive 20% heavy tail amplifies the premature-suspicion
       side of the trade-off *)
    let net = Net.create ~heavy_tail:0.2 () in
    let eng = Engine.create ~seed:97 ~n:3 ~net () in
    let fds = Array.make 3 None in
    for i = 0 to 2 do
      Engine.set_behavior eng i (fun io ->
          let hb = Heartbeat.create ~period ~timeout io in
          fds.(i) <- Some hb;
          Heartbeat.handle hb)
    done;
    Engine.start_all eng;
    let fd i = match fds.(i) with Some hb -> hb | None -> assert false in
    (* phase 1: crash-free window, count wrongful suspicions at node 0 *)
    let wrongful = ref 0 in
    let horizon = 2_000_000 in
    let rec monitor at =
      if at < horizon then
        Engine.at eng at (fun () ->
            if Heartbeat.suspects (fd 0) <> [] then incr wrongful;
            monitor (at + period))
    in
    monitor period;
    Engine.run eng ~until:horizon;
    (* phase 2: crash node 2 and measure time to suspicion at node 0 *)
    let crash_at = Engine.now eng in
    Engine.crash eng 2;
    ignore
      (Engine.run_until eng
         ~until:(crash_at + 50 * timeout)
         ~pred:(fun () -> not (Heartbeat.trusted (fd 0) 2))
         ());
    let detection = Engine.now eng - crash_at in
    (* phase 3: recovery, time to trust again *)
    let recover_at = Engine.now eng in
    Engine.recover eng 2;
    ignore
      (Engine.run_until eng
         ~until:(recover_at + 50 * timeout)
         ~pred:(fun () -> Heartbeat.trusted (fd 0) 2)
         ());
    let retrust = Engine.now eng - recover_at in
    [
      Table.num period;
      Table.num timeout;
      Table.num !wrongful;
      Table.num detection;
      Table.num retrust;
    ]
  in
  [
    {
      Table.title =
        "E12: heartbeat failure-detector QoS (20 percent heavy-tail delays; \
         detection time ~ timeout, wrongful suspicions fall as the timeout \
         grows — the trade-off behind Omega's eventual accuracy)";
      header =
        [ "period us"; "timeout us"; "wrongful samples"; "detect us";
          "re-trust us" ];
      rows = List.map row [ 500; 1_000; 2_000; 4_000 ];
    };
  ]

(* E13 — traffic anatomy: what the wire actually carries. *)

let e13 () =
  let msgs = scale 150 in
  let row name stack =
    let cluster, count = steady_run ~seed:107 ~msgs stack in
    let m = Cluster.metrics cluster in
    let rx kind = Metrics.sum m ("rx." ^ kind) in
    let gossip = rx "gossip" + rx "digest" + rx "need" in
    let total = gossip + rx "consensus" + rx "fd" + rx "state" in
    let pct v = Table.flt (100.0 *. float_of_int v /. float_of_int (max 1 total)) in
    [
      Table.Text name;
      Table.num count;
      Table.num total;
      pct (rx "consensus");
      pct gossip;
      pct (rx "fd");
      pct (rx "state");
    ]
  in
  [
    {
      Table.title =
        "E13: received-message anatomy (share per layer; gossip covers full \
         sets, digests and Need pulls; heartbeats are the fixed background, \
         consensus scales with rounds)";
      header =
        [ "stack"; "msgs"; "rx total"; "% consensus"; "% gossip"; "% fd";
          "% state" ];
      rows =
        [
          row "basic/paxos" (Factory.make Protocol.paper_basic);
          row "basic/coord" (Factory.make ~consensus:`Coord Protocol.paper_basic);
          row "alt/paxos" (Factory.make Protocol.paper_alternative);
        ];
    };
  ]

(* E14 — delta gossip: wire cost of the dissemination layer. The runs
   are also timed (warm-up, best of 7), once more with a Flight ring on
   every node recording the untraced lifecycle events, so the wall
   column shows the recorder's cost; a second table reads the stage
   latency p50s the same runs measured. *)

let e14 () =
  let msgs = scale 400 in
  let run ?flight stack =
    best_of 7 (fun () -> steady_run ~n:5 ~msgs ~mean_gap:1_500 ?flight stack)
  in
  let row name ((cluster, count), wall_s) =
    let m = Cluster.metrics cluster in
    let gmsgs = Metrics.sum m "gossip_msgs_sent" in
    let gbytes = Metrics.sum m "gossip_bytes_sent" in
    [
      Table.Text name;
      Table.num count;
      Table.num gmsgs;
      Table.num gbytes;
      Table.flt (float_of_int gbytes /. float_of_int (max 1 gmsgs));
      Table.flt (float_of_int gbytes /. float_of_int (max 1 count));
      Table.num (Metrics.sum m "msgs_sent");
      Table.num (Cluster.events_processed cluster);
      Table.num (Cluster.now cluster);
      Table.flt (wall_s *. 1_000.0);
    ]
  in
  let full =
    run (Factory.make { Protocol.paper_alternative with delta_gossip = false })
  in
  let delta = run (Factory.make Protocol.paper_alternative) in
  let flight =
    run
      ~flight:(fun ~node:_ -> Flight.create ~cap:4096 ())
      (Factory.make Protocol.paper_alternative)
  in
  let stages =
    [
      "stage.broadcast_to_propose_us";
      "stage.propose_to_adeliver_us";
      "lat_deliver";
      "cons.propose_to_decide_us";
    ]
  in
  let stage_row name ((cluster, _), _) =
    Table.Text name
    :: List.map
         (fun series ->
           match Cluster.hist_summary cluster series with
           | Some s -> Table.flt ~dec:1 s.p50
           | None -> Table.flt nan)
         stages
  in
  [
    {
      Table.title =
        "E14: digest/pull gossip vs full-set gossip (n=5 steady load; the \
         dissemination layer stops re-shipping the whole Unordered set \
         every period)";
      header =
        [ "gossip mode"; "msgs"; "gossip msgs"; "gossip bytes";
          "bytes/gossip msg"; "gossip bytes/msg"; "net msgs total"; "events";
          "sim us"; "wall ms (host)" ];
      rows =
        [
          row "full set (Fig. 3 literal)" full;
          row "digest + Need pull" delta;
          row "digest + Need pull, Flight rings" flight;
        ];
    };
    {
      title = "E14b: stage latency p50s of the same runs (simulated µs)";
      header = "gossip mode" :: stages;
      rows =
        [
          stage_row "full set (Fig. 3 literal)" full;
          stage_row "digest + Need pull" delta;
        ];
    };
  ]

(* E15 — binary wire codec vs Marshal, per protocol message type. *)

let e15 () =
  let module Paxos = Abcast_consensus.Paxos in
  let module Heartbeat = Abcast_fd.Heartbeat in
  let module Agreed = Abcast_core.Agreed in
  let module Vclock = Abcast_core.Vclock in
  let module Batch = Abcast_core.Batch in
  let module P = Abcast_core.Protocol.Make (Paxos) in
  let payload i =
    Payload.make
    { origin = i mod 5; boot = 0; seq = i / 5 }
    (String.make 32 'x')
  in
  let payloads n = List.init n payload in
  (* the micro-benchmarks' 32-payload set (three origins) *)
  let batch32 =
    List.init 32 (fun i ->
        Payload.make { origin = i mod 3; boot = 0; seq = i } (String.make 32 'x'))
  in
  let vc =
    Vclock.of_streams (List.init 5 (fun origin -> ((origin, 0), 10)))
  in
  let repr =
    {
      Agreed.base_app = Some (String.make 64 'a');
      base_len = 55;
      base_chain = 0x1234;
      vc;
      tail = payloads 16;
    }
  in
  let msgs : (string * P.msg) list =
    [
      ( "gossip (8 x 32B)",
        P.Gossip { k = 12; len = 40; unordered = payloads 8; cert = None } );
      ( "digest (5 streams)",
        P.Digest
          {
            k = 12;
            len = 40;
            summary = List.init 5 (fun o -> (o, 0, 10));
            cert =
              Some
                { Abcast_core.Audit.c_boot = 0; c_len = 40; c_hash = 0x1234 };
          } );
      ("need (4 ids)", P.Need { ids = List.map (fun (p : Payload.t) -> p.id) (payloads 4) });
      ("state (16-msg tail)", P.State { k = 12; floor = 8; agreed = repr });
      ( "cons accept (24-msg batch)",
        P.Cons
          (P.M.Inst
             ( 12,
               Paxos.Accept { b = 3; v = Batch.encode (payloads 24) }
             )) );
      ("fd heartbeat", P.Fd (Heartbeat.Beat { epoch = 3 }));
      ( "gossip (32 x 32B)",
        P.Gossip { k = 12; len = 40; unordered = batch32; cert = None } );
    ]
  in
  let time_ns ~iters f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let iters = scale 40_000 in
  (* [encode]/[decode] are the wire codec, [marshal]/[unmarshal] the
     replaced baseline; one row times each round trip. *)
  let row name ~encode ~decode ~marshal ~unmarshal =
    let wire = String.length (encode ()) in
    let marshalled = String.length (marshal ()) in
    let wire_ns = time_ns ~iters (fun () -> decode (encode ())) in
    let marshal_ns = time_ns ~iters (fun () -> unmarshal (marshal ())) in
    [
      Table.Text name;
      Table.num wire;
      Table.num marshalled;
      Table.ratio (float_of_int marshalled) (float_of_int wire);
      Table.flt wire_ns;
      Table.flt marshal_ns;
      Table.ratio marshal_ns wire_ns;
    ]
  in
  let msg_row (name, m) =
    row name
      ~encode:(fun () -> P.encode_msg m)
      ~decode:(fun s ->
        match P.decode_msg s with
        | Some _ -> ()
        | None -> failwith "wire roundtrip failed")
      ~marshal:(fun () -> Marshal.to_string m [])
      ~unmarshal:(fun s -> ignore (Marshal.from_string s 0 : P.msg))
  in
  let batch_row =
    row "batch (32 x 32B)"
      ~encode:(fun () -> Batch.encode batch32)
      ~decode:(fun s -> ignore (Batch.decode s))
      ~marshal:(fun () -> Marshal.to_string (Payload.sort_batch batch32) [])
      ~unmarshal:(fun s -> ignore (Marshal.from_string s 0 : Payload.t list))
  in
  [
    {
      Table.title =
        "E15: binary wire codec vs Marshal (encode+decode round trip per \
         message; every boundary-crossing type is hand-coded, Marshal is \
         the replaced baseline)";
      header =
        [ "message"; "wire B"; "marshal B"; "size x"; "wire ns"; "marshal ns";
          "speedup x" ];
      rows = List.map msg_row msgs @ [ batch_row ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* E16 — durable stable storage: WAL append throughput and recovery    *)
(*       cost vs fsync policy. (The file-per-key backend it replaced    *)
(*       is compared in BENCH_PR3.json.)                                *)

let e16 () =
  let module Durable = Abcast_store.Durable in
  let module Storage = Abcast_sim.Storage in
  let ops = scale 2_000 in
  let value = String.make 128 'v' in
  let key_space = 64 in
  let run policy =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "abcast-e16-%d-wal-%s" (Unix.getpid ())
           (Durable.policy_to_string policy))
    in
    Durable.rm_rf dir;
    let metrics = Metrics.create () in
    let store = Storage.create ~dir ~fsync:policy ~metrics ~node:0 () in
    let t0 = Unix.gettimeofday () in
    for i = 0 to ops - 1 do
      Storage.write store ~layer:"bench"
        ~key:(Printf.sprintf "key%03d" (i mod key_space))
        value
    done;
    let append_s = Unix.gettimeofday () -. t0 in
    (* read before close: close issues one final fsync of its own *)
    let fsyncs = Metrics.get metrics ~node:0 "wal_fsyncs" in
    let compactions =
      match Storage.wal_stats store with
      | Some s -> s.Abcast_store.Wal.compactions
      | None -> 0
    in
    let disk = Storage.disk_bytes store in
    Storage.close store;
    let m2 = Metrics.create () in
    let t1 = Unix.gettimeofday () in
    let store2 = Storage.create ~dir ~fsync:policy ~metrics:m2 ~node:0 () in
    let recover_ms = (Unix.gettimeofday () -. t1) *. 1_000.0 in
    let recovered = Storage.retained_keys store2 in
    Storage.close store2;
    Durable.rm_rf dir;
    ( fsyncs,
      [
        Table.Text (Durable.policy_to_string policy);
        Table.num ops;
        Table.flt ~dec:0 (float_of_int ops /. append_s);
        Table.num fsyncs;
        Table.num compactions;
        Table.num disk;
        Table.flt ~dec:3 recover_ms;
        Table.num recovered;
      ] )
  in
  let results =
    List.map run
      [ Durable.Always; Durable.Every { ops = 64; ms = 20 }; Durable.Never ]
  in
  (* The policies must order the sync counts; anything else means the
     pacer is broken. (The WAL under Never still fsyncs its compaction
     snapshots — durability of the rename is not policy-optional.) *)
  (match List.map fst results with
  | [ always; every; never ] when always > every && every >= never -> ()
  | counts ->
    failwith
      (Printf.sprintf
         "E16: wal fsync counts out of order (always, every, never = %s)"
         (String.concat ", " (List.map string_of_int counts))));
  [
    {
      Table.title =
        "E16: WAL append throughput and recovery (128 B values, cycling keys; \
         one sequential append per op, and compaction keeps the replayed \
         bytes near the live state)";
      header =
        [ "fsync"; "ops"; "appends/s"; "fsyncs"; "compactions"; "disk B";
          "recover ms"; "keys" ];
      rows = List.map snd results;
    };
  ]

(* ------------------------------------------------------------------ *)
(* E18 — the throughput ceiling: dissemination topology x pipeline      *)
(* window draining a saturating burst (every payload offered at once —  *)
(* an open-loop load would only measure its own arrival rate). Gossip + *)
(* window=1 is the PR-3/PR-4 configuration; ring rows are the          *)
(* [Protocol.throughput] preset, including its repair-only digest       *)
(* tuning, at each window. The delivery p95 comes from a separate,      *)
(* moderate open-loop run of the same stack: a queueing-delay reading   *)
(* at saturation would only measure the backlog depth.                  *)

let e18 () =
  let msgs = scale 2_000 in
  let row ~n ~dissemination ~window =
    let stack =
      match dissemination with
      | `Ring -> Factory.make { Protocol.throughput with window }
      | `Gossip -> Factory.make { Protocol.paper_alternative with window }
    in
    let cluster, wall_s = drain_burst ~seed:53 ~rng_seed:57 ~n ~msgs stack in
    let rounds = Cluster.round cluster 0 in
    let p95_ms =
      let lat = Cluster.create stack ~seed:53 ~n () in
      let count =
        Workload.open_loop lat ~rng:(Rng.create 57)
          ~senders:(List.init n Fun.id) ~start:1_000
          ~stop:(1_000 + scale 120_000)
          ~mean_gap:300 ~size:64 ()
      in
      quiesce lat ~count "E18 latency run";
      Metrics.percentile (Cluster.metrics lat) "lat_deliver" 95.0 /. 1_000.0
    in
    [
      Table.num n;
      Table.Text (match dissemination with `Gossip -> "gossip" | `Ring -> "ring");
      Table.num window;
      Table.flt (drain_rate cluster ~msgs);
      Table.flt (float_of_int msgs /. wall_s);
      Table.num rounds;
      Table.flt (float_of_int msgs /. float_of_int (max 1 rounds));
      Table.flt (bytes_per_msg cluster ~msgs);
      Table.flt p95_ms;
    ]
  in
  let rows =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun dissemination ->
            List.map
              (fun window -> row ~n ~dissemination ~window)
              [ 1; 4; 8 ])
          [ `Gossip; `Ring ])
      [ 5; 9 ]
  in
  [
    {
      Table.title =
        "E18: throughput ceiling — dissemination topology x pipeline window \
         draining a saturating burst (alt/paxos; window>=4 lifts simulated \
         drain rate via deeper batching pipelines, ring cuts bytes/payload \
         and host wall time)";
      header =
        [ "n"; "topo"; "W"; "msgs/s (sim)"; "msgs/s (host)"; "rounds";
          "batch"; "net bytes/msg"; "p95 lat ms (open loop)" ];
      rows;
    };
  ]

(* E19 — shard scaling: S independent broadcast groups multiplexed per  *)
(* process (one socket, one WAL), each group offered the same burst —   *)
(* weak scaling, so the aggregate drain rate should grow ~linearly in S *)
(* while each group's delivery p95 stays at the single-group figure.    *)
(* (A fixed total split S ways would only measure per-group latency.)   *)

let e19 () =
  let per_group = scale 800 in
  let n = 5 in
  (* aggregate drain rate, host wall time and worst per-group p95 *)
  let run shards =
    let stack = Factory.sharded ~shards (Factory.make Protocol.throughput) in
    let cluster = Cluster.create stack ~seed:61 ~n () in
    let rng = Rng.create 67 in
    let msgs = per_group * shards in
    for g = 0 to shards - 1 do
      Cluster.at cluster 1_000 (fun () ->
          for j = 0 to per_group - 1 do
            ignore
              (Cluster.broadcast cluster ~group:g ~node:(j mod n)
                 (Workload.payload rng ~size:64))
          done)
    done;
    let t0 = Unix.gettimeofday () in
    quiesce cluster ~count:msgs "E19 burst";
    let wall_s = Unix.gettimeofday () -. t0 in
    let p95 =
      List.fold_left
        (fun acc g ->
          let series =
            if shards = 1 then "lat_deliver"
            else Printf.sprintf "g%d/lat_deliver" g
          in
          Float.max acc
            (Metrics.percentile (Cluster.metrics cluster) series 95.0))
        0.0 (List.init shards Fun.id)
    in
    (shards, drain_rate cluster ~msgs, wall_s, p95)
  in
  let runs = List.map run [ 1; 2; 4; 8 ] in
  let _, base_rate, _, base_p95 = List.hd runs in
  [
    {
      Table.title =
        "E19: shard scaling — S broadcast groups per process \
         (throughput preset, n=5), same burst per group; aggregate \
         simulated drain rate vs the worst group's delivery p95";
      header =
        [ "S"; "msgs"; "agg msgs/s (sim)"; "speedup"; "wall s (host)";
          "worst p95 µs"; "p95 vs S=1" ];
      rows =
        List.map
          (fun (shards, rate, wall_s, p95) ->
            [
              Table.num shards;
              Table.num (per_group * shards);
              Table.flt rate;
              Table.ratio rate base_rate;
              Table.flt wall_s;
              Table.flt p95;
              Table.ratio p95 base_p95;
            ])
          runs;
    };
  ]

(* ------------------------------------------------------------------ *)
(* E20 — service SLO: the client layer under open-loop load on the     *)
(* LIVE runtime (real sockets, real WALs — host-dependent numbers,     *)
(* unlike the seeded sims above). Sweeps client count x linearizable-  *)
(* read mode (full broadcast round trip vs the read-index lease) x     *)
(* shard count S in {1, 4}; each cell reports the completed op rate    *)
(* and the per-class latency percentiles from the load generator, and  *)
(* ends with the exactly-once audit on the quiesced replicas — a       *)
(* bench run that loses or duplicates an acked write is a failure,     *)
(* not a data point.                                                   *)

module Service = Abcast_service.Service
module Loadgen = Abcast_service.Loadgen

let e20_port = ref 7710

let e20_row ~shards ~mode ~clients =
  let base_port = !e20_port in
  e20_port := base_port + 16;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "abcast-e20-%d-%d" (Unix.getpid ()) base_port)
  in
  Abcast_store.Durable.rm_rf dir;
  let cfg =
    {
      Service.default_config with
      shards;
      read_mode = mode;
      max_sessions = max 4096 (2 * clients);
    }
  in
  let svc =
    Service.create ~base_port ~dir
      ~fsync:(Abcast_store.Durable.Every { ops = 64; ms = 20 })
      cfg
  in
  Fun.protect
    ~finally:(fun () ->
      Service.shutdown svc;
      Abcast_store.Durable.rm_rf dir)
  @@ fun () ->
  Service.start svc;
  (* Open-loop: ~2.5 arrivals per client-second, capped so the deepest
     sweep point stays in the stack's sustainable band and measures
     service latency rather than queue depth. *)
  let rate = Float.min 2_000. (2.5 *. float_of_int clients) in
  let duration = if !quick then 1.0 else 2.5 in
  let lcfg =
    {
      Loadgen.clients;
      rate;
      duration;
      write_pct = 40;
      lin_pct = 40;
      timeout = 0.5;
      seed = 23 + base_port;
    }
  in
  let rep = Loadgen.run svc lcfg in
  (match Loadgen.audit svc rep with
  | [] -> ()
  | v :: _ -> failwith ("E20: exactly-once audit failed: " ^ v));
  [
    Table.num shards;
    Table.Text (Service.read_mode_to_string mode);
    Table.num clients;
    Table.flt ~dec:0 rate;
    Table.flt ~dec:0 (float_of_int rep.Loadgen.completed /. rep.wall);
    Table.flt ~dec:0 rep.write.p50;
    Table.flt ~dec:0 rep.write.p95;
    Table.flt ~dec:0 rep.write.p99;
    Table.flt ~dec:0 rep.lin.p50;
    Table.flt ~dec:0 rep.lin.p95;
    Table.flt ~dec:0 rep.lin.p99;
    Table.num rep.not_ready;
    Table.num rep.retries;
    Table.num rep.failed;
  ]

let e20 () =
  let counts = if !quick then [ 50; 200 ] else [ 50; 200; 1_000 ] in
  match
    List.concat_map
      (fun shards ->
        List.concat_map
          (fun mode ->
            List.map (fun clients -> e20_row ~shards ~mode ~clients) counts)
          [ Service.Broadcast; Service.Read_index ])
      [ 1; 4 ]
  with
  | exception Unix.Unix_error _ ->
    prerr_endline "E20: skipped (live sockets unavailable in this environment)";
    []
  | rows ->
    [
      {
        Table.title =
          "E20: service SLO — open-loop sessions on the live runtime (n=3, \
           WAL, fsync every:64:20); writes are Incr broadcasts in both \
           modes, linearizable reads are a broadcast round trip \
           (read=broadcast) or a local lease check at the claimant \
           (read=read-index); every cell passed the exactly-once audit";
        header =
          [ "S"; "read mode"; "clients"; "offered/s"; "done/s"; "wr p50 µs";
            "wr p95 µs"; "wr p99 µs"; "lin p50 µs"; "lin p95 µs";
            "lin p99 µs"; "not ready"; "retry"; "fail" ];
        rows;
      };
    ]

(* ------------------------------------------------------------------ *)
(* E21 — causal tracing cost: the per-payload trace context on the     *)
(* drain-rate ceiling. An unsampled payload carries zero trace bytes   *)
(* (the traced flag rides the low bit of the data-length uvarint, so   *)
(* only data >= 64 bytes pays one wider length byte), hence the trace  *)
(* pair's cost must track the sampled fraction: sweep sampling off /   *)
(* 1-in-100 / 1-in-10 / every broadcast over the E18 saturating burst  *)
(* and compare drain wall time and wire bytes per payload.             *)

let e21 () =
  let msgs = scale 2_000 in
  let run trace_sample =
    drain_burst ~seed:53 ~rng_seed:57 ~n:5 ~msgs
      (Factory.make { Protocol.throughput with trace_sample })
  in
  let samples = [ 0; 100; 10; 1 ] in
  let runs = List.map run samples in
  let base_wall = snd (List.hd runs) in
  [
    {
      Table.title =
        "E21: causal tracing cost — the E18 saturating burst (throughput \
         preset, n=5) with the per-payload trace context sampled every \
         k-th A-broadcast; unsampled payloads carry zero trace bytes, so \
         cost tracks only the sampled fraction";
      header =
        [ "sample"; "msgs"; "wall s (host)"; "sim msgs/s"; "bytes/msg";
          "wall vs off" ];
      rows =
        List.map2
          (fun sample (cluster, wall_s) ->
            [
              Table.Text
                (if sample = 0 then "off" else Printf.sprintf "1/%d" sample);
              Table.num msgs;
              Table.flt wall_s;
              Table.flt (drain_rate cluster ~msgs);
              Table.flt (bytes_per_msg cluster ~msgs);
              Table.ratio wall_s base_wall;
            ])
          samples runs;
    };
  ]

(* E22 — online audit cost: the order-certificate sentinel on the same  *)
(* saturating burst. Chain folding is a handful of integer multiplies   *)
(* per delivery and certificates ride only the periodic gossip/digest   *)
(* frames, so both the drain wall time and the wire bytes per payload   *)
(* must sit within noise of the audit-off run (the acceptance bar is    *)
(* <= 2 amortized bytes per payload). A sentinel trip on this healthy   *)
(* run fails the experiment.                                            *)

let e22 () =
  let msgs = scale 2_000 in
  let run on =
    drain_burst ~seed:61 ~rng_seed:67 ~n:5 ~msgs
      (Factory.make
         { Protocol.throughput with audit_every = (if on then 1 else 0) })
  in
  let modes = [ false; true ] in
  let runs = List.map run modes in
  let base_wall = snd (List.hd runs) in
  let diverged (cluster, _) =
    Metrics.sum (Cluster.metrics cluster) "audit_diverged"
  in
  if List.exists (fun r -> diverged r > 0) runs then
    failwith "E22: audit sentinel tripped on a healthy run";
  [
    {
      Table.title =
        "E22: online audit cost — the E18 saturating burst (throughput \
         preset, n=5) with the order-certificate sentinel off vs on; \
         certificates piggyback on periodic gossip frames, so the \
         amortized wire cost must stay under 2 bytes per payload";
      header =
        [ "audit"; "msgs"; "wall s (host)"; "sim msgs/s"; "bytes/msg";
          "diverged"; "wall vs off" ];
      rows =
        List.map2
          (fun on ((cluster, wall_s) as r) ->
            [
              Table.Text (if on then "on" else "off");
              Table.num msgs;
              Table.flt wall_s;
              Table.flt (drain_rate cluster ~msgs);
              Table.flt (bytes_per_msg cluster ~msgs);
              Table.num (diverged r);
              Table.ratio wall_s base_wall;
            ])
          modes runs;
    };
  ]

let all : (string * (unit -> Table.t list)) list =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5);
    ("E5b", e5b); ("E6", e6); ("E7", e7); ("E8", e8); ("E9", e9);
    ("E10", e10); ("E11", e11); ("E12", e12); ("E13", e13); ("E14", e14);
    ("E15", e15); ("E16", e16); ("E18", e18); ("E19", e19); ("E20", e20);
    ("E21", e21); ("E22", e22);
  ]
