(* End-to-end tests of the atomic broadcast protocols (basic and
   alternative) against the paper's properties and mechanisms. *)

open Helpers
module Proto = Abcast_core.Proto
module Histogram = Abcast_util.Histogram

let basic = Factory.make Protocol.paper_basic

(* Sample count and exact largest sample of the propose->decide series
   over every process: a bound on the largest bounds every sample. *)
let propose_to_decide metrics =
  match Metrics.histogram metrics "cons.propose_to_decide_us" with
  | Some h -> (Histogram.count h, Histogram.max_value h)
  | None -> (0, 0.0)

let basic_tests =
  [
    test "basic: total order across 3 nodes" (fun () ->
        let cluster, _ = run_workload ~msgs:30 basic in
        ignore cluster);
    test "basic: total order across 5 nodes" (fun () ->
        ignore (run_workload ~n:5 ~seed:2 ~msgs:25 basic));
    test "basic: lossy duplicating network" (fun () ->
        let net = Net.create ~loss:0.15 ~dup:0.1 () in
        ignore (run_workload ~seed:3 ~msgs:20 ~net ~until:60_000_000 basic));
    test "basic: coord consensus black box" (fun () ->
        ignore
          (run_workload ~seed:4 ~msgs:20
             (Factory.make ~consensus:`Coord Protocol.paper_basic)));
    test "basic: idle cluster runs no consensus (§4.2)" (fun () ->
        let cluster = Cluster.create basic ~seed:5 ~n:3 () in
        Cluster.run cluster ~until:500_000;
        for i = 0 to 2 do
          Alcotest.(check int) "round stays 0" 0 (Cluster.round cluster i)
        done;
        Alcotest.(check int) "no consensus logging" 0
          (Metrics.sum_prefix (Cluster.metrics cluster) "log_ops"));
    test "basic: one broadcast decides within two round trips" (fun () ->
        (* Fixed 500 µs links: the leader's Prepare/Promise and
           Accept/Accepted take 2,000 µs, and every other process learns
           the decision 2,000 µs after its own propose. No timer wait may
           sit on that path. *)
        List.iter
          (fun seed ->
            let net = Net.create ~delay_min:500 ~delay_max:500 ~heavy_tail:0.0 () in
            let cluster = Cluster.create basic ~seed ~n:3 ~net () in
            Cluster.at cluster 100_000 (fun () ->
                ignore (Cluster.broadcast cluster ~node:0 "m"));
            let ok =
              Cluster.run_until cluster ~until:1_000_000
                ~pred:(fun () -> Cluster.all_caught_up cluster ~count:1 ())
                ()
            in
            Alcotest.(check bool) "delivered" true ok;
            let n, us = propose_to_decide (Cluster.metrics cluster) in
            Alcotest.(check bool) "sampled" true (n > 0);
            if us > 2_000.0 then
              Alcotest.failf "seed %d: propose->decide %.0f us > 2000" seed us)
          [ 1; 2; 3; 4; 5 ]);
    test "basic: under a stable leader later broadcasts decide in one round trip"
      (fun () ->
        (* Fixed 500 µs links: the first broadcast opens the leader's term
           (two round trips); each later one skips phase 1, so the leader
           decides 1,000 µs after it proposes and the others learn the
           decision no later than that after their own propose. *)
        List.iter
          (fun seed ->
            let net = Net.create ~delay_min:500 ~delay_max:500 ~heavy_tail:0.0 () in
            let cluster = Cluster.create basic ~seed ~n:3 ~net () in
            let metrics = Cluster.metrics cluster in
            let deliver_all count =
              Alcotest.(check bool) "delivered" true
                (Cluster.run_until cluster ~until:(Cluster.now cluster + 1_000_000)
                   ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
                   ())
            in
            Cluster.at cluster 100_000 (fun () ->
                ignore (Cluster.broadcast cluster ~node:0 "m0"));
            deliver_all 1;
            Metrics.reset metrics;
            for i = 1 to 4 do
              Cluster.at cluster (100_000 + (i * 50_000)) (fun () ->
                  ignore (Cluster.broadcast cluster ~node:0 (Printf.sprintf "m%d" i)))
            done;
            deliver_all 5;
            let n, us = propose_to_decide metrics in
            Alcotest.(check bool) "sampled" true (n >= 4);
            if us > 1_000.0 then
              Alcotest.failf "seed %d: propose->decide %.0f us > 1000" seed us)
          [ 1; 2; 3; 4; 5 ]);
    test "basic: zero abcast-layer log operations (§4.3)" (fun () ->
        let cluster, _ = run_workload ~seed:6 ~msgs:25 basic in
        Alcotest.(check int) "abcast ops" 0
          (Metrics.sum_prefix (Cluster.metrics cluster) "log_ops.abcast");
        Alcotest.(check bool) "consensus ops exist" true
          (Metrics.sum_prefix (Cluster.metrics cluster) "log_ops.consensus" > 0));
    test "basic: crash before completion may lose the message" (fun () ->
        (* A-broadcast that never returned carries no obligation: crash the
           origin immediately; whether or not the message survives (it was
           never gossiped), properties must hold. *)
        let cluster = Cluster.create basic ~seed:7 ~n:3 () in
        Cluster.at cluster 1_000 (fun () ->
            ignore (Cluster.broadcast cluster ~node:2 "doomed");
            Cluster.crash cluster 2);
        Cluster.at cluster 50_000 (fun () -> Cluster.recover cluster 2);
        Cluster.run cluster ~until:2_000_000;
        check_ok "props" (Checks.all ~cluster ~good:[ 0; 1; 2 ] ());
        Alcotest.(check int) "lost" 0 (Cluster.delivered_count cluster 0));
    test "basic: recovery replays the full prefix" (fun () ->
        let cluster, count = run_workload ~seed:8 ~msgs:15 basic in
        let before = Cluster.delivered_count cluster 1 in
        Cluster.crash cluster 1;
        Cluster.recover cluster 1;
        Cluster.run cluster ~until:(Cluster.now cluster + 3_000_000);
        Alcotest.(check int) "same count" before (Cluster.delivered_count cluster 1);
        Alcotest.(check bool) "replay metric" true
          (Metrics.get (Cluster.metrics cluster) ~node:1 "replay_rounds" > 0);
        check_ok "props" (Checks.all ~cluster ~good:[ 0; 1; 2 ] ());
        ignore count);
    test "basic: downed node catches up through gossip" (fun () ->
        let cluster = Cluster.create basic ~seed:9 ~n:3 () in
        Cluster.at cluster 1_000 (fun () -> Cluster.crash cluster 2);
        let rng = Rng.create 99 in
        let count =
          Workload.open_loop cluster ~rng ~senders:[ 0; 1 ] ~start:2_000
            ~stop:30_000 ~mean_gap:1_500 ()
        in
        Cluster.at cluster 100_000 (fun () -> Cluster.recover cluster 2);
        let ok =
          Cluster.run_until cluster ~until:20_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
            ()
        in
        Alcotest.(check bool) "caught up" true ok;
        check_ok "props" (Checks.all ~cluster ~good:[ 0; 1; 2 ] ()));
    test "basic: majority keeps delivering while a minority is down" (fun () ->
        let cluster = Cluster.create basic ~seed:10 ~n:5 () in
        Cluster.at cluster 500 (fun () -> Cluster.crash cluster 3);
        Cluster.at cluster 500 (fun () -> Cluster.crash cluster 4);
        let rng = Rng.create 42 in
        let count =
          Workload.open_loop cluster ~rng ~senders:[ 0; 1; 2 ] ~start:1_000
            ~stop:40_000 ~mean_gap:2_000 ()
        in
        let ok =
          Cluster.run_until cluster ~until:30_000_000
            ~pred:(fun () ->
              Cluster.all_caught_up cluster ~among:[ 0; 1; 2 ] ~count ())
            ()
        in
        Alcotest.(check bool) "minority down, majority live" true ok);
    test "basic: blocked under majority loss, resumes after recovery" (fun () ->
        let cluster = Cluster.create basic ~seed:11 ~n:3 () in
        Cluster.at cluster 500 (fun () -> Cluster.crash cluster 1);
        Cluster.at cluster 500 (fun () -> Cluster.crash cluster 2);
        Cluster.at cluster 1_000 (fun () ->
            ignore (Cluster.broadcast cluster ~node:0 "stuck"));
        Cluster.run cluster ~until:2_000_000;
        Alcotest.(check int) "blocked" 0 (Cluster.delivered_count cluster 0);
        Cluster.recover cluster 1;
        let ok =
          Cluster.run_until cluster ~until:30_000_000
            ~pred:(fun () -> Cluster.delivered_count cluster 0 >= 1)
            ()
        in
        Alcotest.(check bool) "resumed" true ok);
    test "basic: partition heals and order holds" (fun () ->
        let net = Net.create () in
        let cluster = Cluster.create basic ~seed:12 ~n:3 ~net () in
        Cluster.at cluster 5_000 (fun () ->
            Net.partition net (fun ~src ~dst -> src = 2 || dst = 2));
        let rng = Rng.create 7 in
        let count =
          Workload.open_loop cluster ~rng ~senders:[ 0; 1 ] ~start:6_000
            ~stop:40_000 ~mean_gap:2_000 ()
        in
        Cluster.at cluster 100_000 (fun () -> Net.heal net);
        let ok =
          Cluster.run_until cluster ~until:30_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
            ()
        in
        Alcotest.(check bool) "healed" true ok;
        check_ok "props" (Checks.all ~cluster ~good:[ 0; 1; 2 ] ()));
  ]

let alternative_tests =
  [
    test "alt: total order, default config" (fun () ->
        ignore
          (run_workload ~seed:20 ~msgs:30
             (Factory.make Protocol.paper_alternative)));
    test "alt: coord consensus" (fun () ->
        ignore
          (run_workload ~seed:21 ~msgs:20
             (Factory.make ~consensus:`Coord Protocol.paper_alternative)));
    test "alt: early-return broadcast survives an origin crash (§5.4)" (fun () ->
        let cluster =
          Cluster.create
            (Factory.make { Protocol.paper_alternative with early_return = true })
            ~seed:22 ~n:3 ()
        in
        (* Partition the origin first so nothing escapes by gossip; the
           logged Unordered set is the only way the message survives. *)
        let net = Cluster.net cluster in
        Cluster.at cluster 1_000 (fun () ->
            Net.partition net (fun ~src ~dst -> src = 2 || dst = 2);
            ignore (Cluster.broadcast cluster ~node:2 "durable"));
        Cluster.at cluster 3_000 (fun () ->
            Cluster.crash cluster 2;
            Net.heal net);
        Cluster.at cluster 10_000 (fun () -> Cluster.recover cluster 2);
        let ok =
          Cluster.run_until cluster ~until:30_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count:1 ())
            ()
        in
        Alcotest.(check bool) "delivered after recovery" true ok;
        check_ok "props" (Checks.all ~cluster ~good:[ 0; 1; 2 ] ()));
    test "basic: same scenario loses the message (contrast to §5.4)" (fun () ->
        let cluster = Cluster.create basic ~seed:22 ~n:3 () in
        let net = Cluster.net cluster in
        Cluster.at cluster 1_000 (fun () ->
            Net.partition net (fun ~src ~dst -> src = 2 || dst = 2);
            ignore (Cluster.broadcast cluster ~node:2 "volatile"));
        Cluster.at cluster 3_000 (fun () ->
            Cluster.crash cluster 2;
            Net.heal net);
        Cluster.at cluster 10_000 (fun () -> Cluster.recover cluster 2);
        Cluster.run cluster ~until:3_000_000;
        Alcotest.(check int) "lost" 0 (Cluster.delivered_count cluster 0);
        check_ok "props (loss is allowed: never completed)"
          (Checks.all ~cluster ~good:[ 0; 1; 2 ] ()));
    test "alt: checkpoints shorten replay (§5.1)" (fun () ->
        let stack =
          Factory.make
            { Protocol.paper_alternative with checkpoint_period = Some 10_000 }
        in
        let cluster, _ = run_workload ~seed:23 ~msgs:30 ~until:30_000_000 stack in
        Cluster.run cluster ~until:(Cluster.now cluster + 50_000);
        Cluster.crash cluster 1;
        Cluster.recover cluster 1;
        Cluster.run cluster ~until:(Cluster.now cluster + 1_000_000);
        let replayed = Metrics.get (Cluster.metrics cluster) ~node:1 "replay_rounds" in
        let rounds = Cluster.round cluster 1 in
        Alcotest.(check bool)
          (Printf.sprintf "replayed %d << rounds %d" replayed rounds)
          true
          (replayed < rounds / 2));
    test "alt: state transfer rescues a long-gone node (§5.3)" (fun () ->
        let stack =
          Factory.make
            {
              Protocol.paper_alternative with
              delta = Some 3;
              checkpoint_period = Some 15_000;
            }
        in
        let cluster = Cluster.create stack ~seed:24 ~n:3 () in
        Cluster.at cluster 2_000 (fun () -> Cluster.crash cluster 2);
        let rng = Rng.create 5 in
        let count =
          Workload.open_loop cluster ~rng ~senders:[ 0; 1 ] ~start:3_000
            ~stop:150_000 ~mean_gap:1_200 ()
        in
        Cluster.at cluster 200_000 (fun () -> Cluster.recover cluster 2);
        let ok =
          Cluster.run_until cluster ~until:50_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
            ()
        in
        Alcotest.(check bool) "caught up" true ok;
        Alcotest.(check bool) "used state transfer" true
          (Metrics.sum (Cluster.metrics cluster) "state_transfers_applied" >= 1);
        check_ok "props" (Checks.all ~cluster ~good:[ 0; 1; 2 ] ()));
    test "alt: small lag stays below delta (no state transfer)" (fun () ->
        let stack =
          Factory.make
            {
              Protocol.paper_alternative with
              delta = Some 1_000;
              checkpoint_period = Some 1_000_000;
            }
        in
        let cluster, _ = run_workload ~seed:25 ~msgs:20 stack in
        Alcotest.(check int) "no transfers" 0
          (Metrics.sum (Cluster.metrics cluster) "state_transfers_applied"));
    test "alt: trimmed state transfer ships fewer bytes (§5.3 optim.)" (fun () ->
        let stack =
          Factory.make
            {
              Protocol.paper_alternative with
              delta = Some 3;
              checkpoint_period = Some 1_000_000;
            }
        in
        let cluster = Cluster.create stack ~seed:95 ~n:3 () in
        let rng = Rng.create 96 in
        (* node 2 sees the first third, misses the rest, then catches up *)
        Cluster.at cluster 30_000 (fun () -> Cluster.crash cluster 2);
        let count =
          Workload.open_loop cluster ~rng ~senders:[ 0; 1 ] ~start:1_000
            ~stop:100_000 ~mean_gap:1_000 ()
        in
        Cluster.at cluster 110_000 (fun () -> Cluster.recover cluster 2);
        let ok =
          Cluster.run_until cluster ~until:60_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
            ()
        in
        Alcotest.(check bool) "caught up" true ok;
        let m = Cluster.metrics cluster in
        Alcotest.(check bool) "transfer happened" true
          (Metrics.sum m "state_transfers_applied" >= 1);
        (* Without an app hook nothing is compacted, so a donor's full
           Agreed snapshot is its whole delivered sequence; each State
           must ship less than that. *)
        let full =
          String.length
            (Abcast_util.Wire.to_string Abcast_core.Agreed.write_repr
               {
                 base_app = None;
                 base_len = 0;
                 base_chain = Abcast_core.Audit.empty;
                 vc = Cluster.delivery_vc cluster 0;
                 tail = Cluster.delivered_tail cluster 0;
               })
        and per_state =
          Metrics.sum m "state_bytes_sent" / Metrics.sum m "state_sent"
        in
        Alcotest.(check bool)
          (Printf.sprintf "%d bytes per State < full snapshot %d" per_state
             full)
          true (per_state < full));
    test "alt: incremental logging writes fewer bytes than full (§5.5)" (fun () ->
        let bytes_of incremental =
          let stack =
            Factory.make
              {
                Protocol.paper_alternative with
                early_return = true;
                incremental;
              }
          in
          let cluster, _ = run_workload ~seed:26 ~msgs:30 stack in
          Metrics.sum_prefix (Cluster.metrics cluster) "log_bytes.abcast"
        in
        let inc = bytes_of true and full = bytes_of false in
        Alcotest.(check bool)
          (Printf.sprintf "incremental %d < full %d" inc full)
          true (inc < full));
    test "naive strawman logs far more than basic (§4.3 ablation)" (fun () ->
        let ops_of stack =
          let cluster, _ = run_workload ~seed:27 ~msgs:20 stack in
          Metrics.sum_prefix (Cluster.metrics cluster) "log_ops.abcast"
        in
        let naive = ops_of (Factory.make Protocol.naive) in
        let minimal = ops_of basic in
        Alcotest.(check int) "basic is zero" 0 minimal;
        (* per-round checkpoints + per-broadcast Unordered re-logs: at
           least one abcast-layer write per message across the cluster *)
        Alcotest.(check bool)
          (Printf.sprintf "naive is busy (%d ops)" naive)
          true (naive > 20));
    test "alt: checkpoint bounds retained storage with an app (§5.2)" (fun () ->
        let replicas = Array.make 3 None in
        let module R = Abcast_apps.Kv.Replica in
        let stack =
          Factory.make
            ~app_factory:(R.factory (fun i r -> replicas.(i) <- Some r))
            { Protocol.paper_alternative with checkpoint_period = Some 10_000 }
        in
        let cluster = Cluster.create stack ~seed:28 ~n:3 () in
        let rng = Rng.create 12 in
        for j = 0 to 79 do
          Cluster.at cluster (1_000 + (j * 1_000)) (fun () ->
              ignore
                (Cluster.broadcast cluster ~node:(j mod 3)
                   (Abcast_apps.Kv.set_cmd ~key:(string_of_int (j mod 7))
                      ~value:(Workload.payload rng ~size:40))))
        done;
        let ok =
          Cluster.run_until cluster ~until:50_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count:80 ())
            ()
        in
        Alcotest.(check bool) "done" true ok;
        Cluster.run cluster ~until:(Cluster.now cluster + 30_000);
        for i = 0 to 2 do
          let b = Cluster.retained_bytes cluster i in
          Alcotest.(check bool)
            (Printf.sprintf "node %d retains %dB (< 4KB)" i b)
            true (b < 4_096)
        done;
        (* replicas converged *)
        let digests =
          List.map
            (fun i ->
              match replicas.(i) with
              | Some r -> Abcast_apps.Kv.digest (R.state r)
              | None -> Alcotest.fail "replica missing")
            [ 0; 1; 2 ]
        in
        match digests with
        | d :: rest -> List.iter (Alcotest.(check string) "converged" d) rest
        | [] -> ());
    test "alt: a quiescent node writes nothing to stable storage" (fun () ->
        let module R = Abcast_apps.Kv.Replica in
        let stack =
          Factory.make ~app_factory:(R.factory (fun _ _ -> ()))
            Protocol.paper_alternative
        in
        let cluster = Cluster.create stack ~seed:30 ~n:3 () in
        for j = 0 to 29 do
          Cluster.at cluster (1_000 + (j * 1_500)) (fun () ->
              ignore
                (Cluster.broadcast cluster ~node:(j mod 3)
                   (Abcast_apps.Kv.set_cmd ~key:(string_of_int j) ~value:"v")))
        done;
        Alcotest.(check bool) "done" true
          (Cluster.run_until cluster ~until:50_000_000
             ~pred:(fun () -> Cluster.all_caught_up cluster ~count:30 ())
             ());
        (* one checkpoint period settles the last deliveries' checkpoint *)
        Cluster.run cluster ~until:(Cluster.now cluster + 100_000);
        let ops () = Metrics.sum_prefix (Cluster.metrics cluster) "log_ops" in
        let before = ops () in
        Alcotest.(check bool) "checkpoints were written" true
          (Metrics.sum_prefix (Cluster.metrics cluster) "log_ops.abcast" > 0);
        Cluster.run cluster ~until:(Cluster.now cluster + 1_000_000);
        Alcotest.(check int) "no log_ops over 1 s of quiescence" before (ops ()));
    test "alt: recovery installs the app checkpoint" (fun () ->
        let replicas = Array.make 3 None in
        let module R = Abcast_apps.Kv.Replica in
        let stack =
          Factory.make
            ~app_factory:(R.factory (fun i r -> replicas.(i) <- Some r))
            { Protocol.paper_alternative with checkpoint_period = Some 8_000 }
        in
        let cluster = Cluster.create stack ~seed:29 ~n:3 () in
        for j = 0 to 29 do
          Cluster.at cluster (1_000 + (j * 1_500)) (fun () ->
              ignore
                (Cluster.broadcast cluster ~node:(j mod 3)
                   (Abcast_apps.Kv.set_cmd ~key:(string_of_int j) ~value:"v")))
        done;
        let ok =
          Cluster.run_until cluster ~until:50_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count:30 ())
            ()
        in
        Alcotest.(check bool) "done" true ok;
        Cluster.run cluster ~until:(Cluster.now cluster + 20_000);
        Cluster.crash cluster 0;
        Cluster.recover cluster 0;
        Cluster.run cluster ~until:(Cluster.now cluster + 500_000);
        (match replicas.(0) with
        | Some r ->
          Alcotest.(check int) "all commands present" 30
            (Abcast_apps.Kv.size (R.state r))
        | None -> Alcotest.fail "replica missing"));
  ]

let window_tests =
  [
    test "window=4: total order and properties hold" (fun () ->
        ignore
          (run_workload ~seed:60 ~msgs:40
             (Factory.make { Protocol.paper_alternative with window = 4 })));
    test "window=4: coord consensus" (fun () ->
        ignore
          (run_workload ~seed:61 ~msgs:25
             (Factory.make ~consensus:`Coord
                { Protocol.paper_alternative with window = 4 })));
    test "window=4: lossy network, crash and recovery" (fun () ->
        let stack =
          Factory.make
            {
              Protocol.paper_alternative with
              window = 4;
              checkpoint_period = Some 30_000;
            }
        in
        let net = Net.create ~loss:0.1 () in
        let cluster = Cluster.create stack ~seed:62 ~n:3 ~net () in
        let rng = Rng.create 63 in
        Cluster.at cluster 20_000 (fun () -> Cluster.crash cluster 1);
        Cluster.at cluster 60_000 (fun () -> Cluster.recover cluster 1);
        let count =
          Workload.open_loop cluster ~rng ~senders:[ 0; 2 ] ~start:1_000
            ~stop:80_000 ~mean_gap:700 ()
        in
        let ok =
          Cluster.run_until cluster ~until:100_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
            ()
        in
        Alcotest.(check bool) "caught up" true ok;
        check_ok "props" (Checks.all ~cluster ~good:[ 0; 1; 2 ] ()));
    test "window=4: multiple in-flight proposals survive a crash" (fun () ->
        (* burst of broadcasts at one node so several instances are open,
           then crash it before they decide; recovery must re-propose all
           of them (P4) and lose nothing that was logged *)
        let stack =
          Factory.make
            {
              Protocol.paper_alternative with
              window = 4;
              early_return = true;
              checkpoint_period = Some 1_000_000;
            }
        in
        let cluster = Cluster.create stack ~seed:64 ~n:3 () in
        let net = Cluster.net cluster in
        Cluster.at cluster 1_000 (fun () ->
            Net.partition net (fun ~src ~dst -> src = 0 || dst = 0);
            for j = 0 to 7 do
              ignore (Cluster.broadcast cluster ~node:0 (Printf.sprintf "b%d" j))
            done);
        Cluster.at cluster 5_000 (fun () ->
            Cluster.crash cluster 0;
            Net.heal net);
        Cluster.at cluster 15_000 (fun () -> Cluster.recover cluster 0);
        let ok =
          Cluster.run_until cluster ~until:60_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count:8 ())
            ()
        in
        Alcotest.(check bool) "all eight delivered" true ok;
        check_ok "props" (Checks.all ~cluster ~good:[ 0; 1; 2 ] ()));
    test "window=4: per-stream FIFO survives contention" (fun () ->
        (* heavy concurrent load from all nodes; any FIFO violation makes
           Vclock.add raise inside the protocol, so quiescing cleanly plus
           the prefix check is the assertion *)
        let stack =
          Factory.make { Protocol.paper_alternative with window = 4 }
        in
        let cluster = Cluster.create stack ~seed:65 ~n:3 () in
        let rng = Rng.create 66 in
        let count =
          Workload.open_loop cluster ~rng ~senders:[ 0; 1; 2 ] ~start:1_000
            ~stop:40_000 ~mean_gap:200 ()
        in
        let ok =
          Cluster.run_until cluster ~until:60_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
            ()
        in
        Alcotest.(check bool) "caught up" true ok;
        check_ok "props" (Checks.all ~cluster ~good:[ 0; 1; 2 ] ()));
    test "window=1 equals the paper's sequential sequencer" (fun () ->
        (* same seed, window=1 vs the basic-protocol trigger shape: the
           alternative with window=1 opens at most one instance beyond
           delivered rounds *)
        let stack =
          Factory.make { Protocol.paper_alternative with window = 1 }
        in
        let cluster, _ = run_workload ~seed:67 ~msgs:20 stack in
        ignore cluster);
    test "window: invalid value rejected" (fun () ->
        (* one row per field [Protocol.validate] guards *)
        let module P = Protocol.Make (Abcast_consensus.Paxos) in
        let c = Protocol.paper_alternative in
        let rejected =
          [
            ("window must be >= 1", { c with window = 0 });
            ("gossip_full_every must be >= 1", { c with gossip_full_every = 0 });
            ("trace_sample must be >= 0", { c with trace_sample = -1 });
          ]
        in
        let eng = Engine.create ~seed:1 ~n:1 () in
        Engine.set_behavior eng 0 (fun io ->
            List.iter
              (fun (what, cfg) ->
                Alcotest.check_raises what
                  (Invalid_argument ("Protocol.config: " ^ what))
                  (fun () -> ignore (P.create cfg io ~on_deliver:ignore)))
              rejected;
            fun ~src:_ _ -> ());
        Engine.start eng 0);
    test "presets derive the stack names bench rows are keyed on" (fun () ->
        List.iter
          (fun (cfg, variant) ->
            List.iter
              (fun (consensus, cname) ->
                Alcotest.(check string) variant (variant ^ "/" ^ cname)
                  (Abcast_core.Proto.name (Factory.make ~consensus cfg)))
              [ (`Paxos, "paxos"); (`Coord, "coord") ])
          [
            (Protocol.paper_basic, "basic");
            (Protocol.paper_alternative, "alt");
            (Protocol.naive, "naive");
            (Protocol.throughput, "alt+ring");
          ]);
  ]

(* Delivery latency should be recorded at origins. *)
let metrics_tests =
  [
    test "latency observations are recorded" (fun () ->
        let cluster, count = run_workload ~seed:30 ~msgs:15 basic in
        let m = Cluster.metrics cluster in
        Alcotest.(check int) "one sample per broadcast" count
          (Metrics.count_samples m "lat_deliver");
        Alcotest.(check bool) "positive" true (Metrics.mean m "lat_deliver" > 0.0));
    test "broadcast counters add up" (fun () ->
        let cluster, count = run_workload ~seed:31 ~msgs:10 basic in
        let m = Cluster.metrics cluster in
        Alcotest.(check int) "broadcasts" count (Metrics.sum m "ab_broadcasts");
        Alcotest.(check int) "deliveries" (count * 3) (Metrics.sum m "ab_delivered"));
  ]

(* Direct use of the functor API (not via Factory): checkpoint_now and
   floor, plus the gossip period. *)
let direct_api_tests =
  [
    test "Alternative.checkpoint_now raises the truncation floor" (fun () ->
        let module P = Protocol.Make (Abcast_consensus.Paxos) in
        let eng = Engine.create ~seed:91 ~n:3 () in
        let protos : P.t option array = Array.make 3 None in
        let cfg =
          {
            Protocol.paper_alternative with
            checkpoint_period = Some 10_000_000;
          }
        in
        for i = 0 to 2 do
          Engine.set_behavior eng i (fun io ->
              let p = P.create cfg io ~on_deliver:ignore in
              protos.(i) <- Some p;
              P.handler p)
        done;
        Engine.start_all eng;
        let get i = match protos.(i) with Some p -> p | None -> assert false in
        for j = 0 to 9 do
          Engine.at eng (500 * (j + 1)) (fun () ->
              ignore (P.broadcast (get (j mod 3)) "x"))
        done;
        let done_ () =
          List.for_all (fun i -> P.delivered_count (get i) >= 10) [ 0; 1; 2 ]
        in
        Alcotest.(check bool) "delivered" true
          (Engine.run_until eng ~until:20_000_000 ~pred:done_ ());
        Alcotest.(check int) "floor starts at 0" 0 (P.floor (get 0));
        P.checkpoint_now (get 0);
        Alcotest.(check bool) "floor raised" true (P.floor (get 0) > 0);
        Alcotest.(check int) "floor = round" (P.round (get 0))
          (P.floor (get 0));
        (* the agreed snapshot survives a checkpoint untouched *)
        let snap = P.agreed_snapshot (get 0) in
        Alcotest.(check int) "snapshot covers everything" 10
          (snap.base_len + List.length snap.tail));
    test "gossip period is configurable and matters" (fun () ->
        (* a 10x slower gossip delays a gossip-only catch-up *)
        let catch_up_time gossip_period =
          let cluster =
            Cluster.create
              (Factory.make { Protocol.paper_basic with gossip_period })
              ~seed:94 ~n:3 ()
          in
          Cluster.at cluster 1_000 (fun () -> Cluster.crash cluster 2);
          Cluster.at cluster 2_000 (fun () ->
              ignore (Cluster.broadcast cluster ~node:0 "m"));
          Cluster.at cluster 50_000 (fun () -> Cluster.recover cluster 2);
          let ok =
            Cluster.run_until cluster ~until:200_000_000
              ~pred:(fun () -> Cluster.all_caught_up cluster ~count:1 ())
              ()
          in
          Alcotest.(check bool) "caught up" true ok;
          Cluster.now cluster
        in
        Alcotest.(check bool) "slow gossip is slower" true
          (catch_up_time 30_000 > catch_up_time 3_000));
  ]

let determinism_tests =
  [
    test "identical seeds give identical delivered sequences" (fun () ->
        let go () =
          let cluster, _ = run_workload ~seed:77 ~msgs:25 basic in
          List.map
            (fun (p : Payload.t) -> Format.asprintf "%a" Payload.pp_id p.id)
            (Cluster.delivered_tail cluster 0)
        in
        Alcotest.(check (list string)) "bitwise equal" (go ()) (go ()));
    test "identical seeds give identical metrics" (fun () ->
        let go () =
          let cluster, _ = run_workload ~seed:78 ~msgs:20 basic in
          let m = Cluster.metrics cluster in
          ( Metrics.sum m "msgs_sent",
            Metrics.sum_prefix m "log_ops",
            Cluster.now cluster )
        in
        Alcotest.(check (triple int int int)) "equal" (go ()) (go ()));
    test "different seeds explore different schedules" (fun () ->
        let go seed =
          let cluster, _ = run_workload ~seed ~msgs:20 basic in
          Metrics.sum (Cluster.metrics cluster) "msgs_sent"
        in
        (* not logically required, but if every seed gave identical counts
           the randomization would clearly be broken *)
        Alcotest.(check bool) "differ" true (go 101 <> go 202));
  ]

let edge_tests =
  [
    test "gossip does not resurrect agreed messages" (fun () ->
        (* after quiescence, keep running with gossip flowing: nothing may
           be re-delivered and rounds may not spin *)
        let cluster, count = run_workload ~seed:79 ~msgs:15 basic in
        let rounds = Cluster.round cluster 0 in
        let delivered = Cluster.delivered_count cluster 0 in
        Cluster.run cluster ~until:(Cluster.now cluster + 1_000_000);
        Alcotest.(check int) "no new rounds" rounds (Cluster.round cluster 0);
        Alcotest.(check int) "no re-deliveries" delivered
          (Cluster.delivered_count cluster 0);
        Alcotest.(check int) "unordered empty" 0 (Cluster.unordered_count cluster 0);
        ignore count);
    test "asymmetric slow node still converges" (fun () ->
        let net = Net.create () in
        (* node 2's outbound links are 20x slower *)
        Net.set_link net ~src:2 ~dst:0 ~delay_min:10_000 ~delay_max:40_000 ();
        Net.set_link net ~src:2 ~dst:1 ~delay_min:10_000 ~delay_max:40_000 ();
        ignore (run_workload ~seed:80 ~msgs:15 ~net ~until:120_000_000 basic));
    test "state message is harmless to the basic protocol" (fun () ->
        (* a basic-mode node receiving State must not adopt anything; we
           approximate by running alt and basic side by side is not
           type-compatible, so instead check the basic stack treats a lag
           hint via gossip_k only: a one-node burst then catch-up *)
        let cluster, _ = run_workload ~seed:81 ~msgs:10 basic in
        Alcotest.(check int) "no transfers ever" 0
          (Metrics.sum (Cluster.metrics cluster) "state_transfers_applied"));
    test "duplicated heavy traffic keeps integrity" (fun () ->
        let net = Net.create ~dup:0.4 () in
        ignore (run_workload ~seed:82 ~msgs:25 ~net ~until:60_000_000 basic));
    test "broadcast ids are unique across incarnations" (fun () ->
        let cluster = Cluster.create basic ~seed:83 ~n:3 () in
        let collect = ref [] in
        let send () =
          match Cluster.broadcast cluster ~node:0 "x" with
          | Some id -> collect := id :: !collect
          | None -> Alcotest.fail "node down?"
        in
        Cluster.at cluster 1_000 send;
        Cluster.at cluster 1_001 send;
        Cluster.at cluster 30_000 (fun () ->
            Cluster.crash cluster 0;
            Cluster.recover cluster 0);
        Cluster.at cluster 31_000 send;
        Cluster.run cluster ~until:10_000_000;
        let ids = !collect in
        Alcotest.(check int) "three ids" 3 (List.length ids);
        let distinct =
          List.length
            (List.sort_uniq Payload.compare_id ids)
        in
        Alcotest.(check int) "all distinct" 3 distinct;
        (* the post-recovery id carries a new boot number *)
        match ids with
        | third :: _ -> Alcotest.(check int) "boot" 1 third.boot
        | [] -> Alcotest.fail "no ids");
  ]

(* One adversarial run (message loss + duplication + a crash/recovery)
   with a full-set gossip every [gossip_full_every]-th tick; returns a
   fingerprint of everything node 0 delivered. Used by the equivalence
   sweep: digest/pull gossip must produce the same delivered set as
   Fig. 3's full-set gossip on every tick. *)
let delta_equiv_run ~gossip_full_every ~seed =
  let net = Net.create ~loss:0.12 ~dup:0.05 () in
  let stack =
    Factory.make { Protocol.paper_alternative with gossip_full_every }
  in
  let cluster = Cluster.create stack ~seed ~n:3 ~net () in
  let rng = Rng.create (seed + 4242) in
  Cluster.at cluster 12_000 (fun () -> Cluster.crash cluster 1);
  Cluster.at cluster 30_000 (fun () -> Cluster.recover cluster 1);
  let count =
    Workload.open_loop cluster ~rng ~senders:[ 0; 2 ] ~start:1_000 ~stop:40_000
      ~mean_gap:900 ()
  in
  let ok =
    Cluster.run_until cluster ~until:400_000_000
      ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
      ()
  in
  if not ok then
    Alcotest.failf "seed %d (gossip_full_every=%d): did not quiesce" seed
      gossip_full_every;
  check_ok
    (Printf.sprintf "properties (seed %d, gossip_full_every=%d)" seed
       gossip_full_every)
    (Checks.all ~cluster ~good:[ 0; 1; 2 ] ());
  ( Cluster.delivered_count cluster 0,
    Abcast_core.Vclock.streams (Cluster.delivery_vc cluster 0) )

let delta_gossip_tests =
  [
    test "digest+Need pulls payloads while consensus is blocked" (fun () ->
        (* n=5 with only a minority up: consensus cannot order anything,
           so the only way node 1 can learn node 0's message is the
           digest -> Need -> payload-Gossip pull path. *)
        let cluster = Cluster.create basic ~seed:41 ~n:5 () in
        Cluster.at cluster 500 (fun () ->
            Cluster.crash cluster 2;
            Cluster.crash cluster 3;
            Cluster.crash cluster 4);
        Cluster.at cluster 1_000 (fun () ->
            ignore (Cluster.broadcast cluster ~node:0 "pull-me"));
        Cluster.run cluster ~until:40_000;
        Alcotest.(check int) "consensus blocked" 0
          (Cluster.delivered_count cluster 1);
        Alcotest.(check int) "payload pulled" 1
          (Cluster.unordered_count cluster 1);
        let m = Cluster.metrics cluster in
        Alcotest.(check bool) "digests flowed" true (Metrics.sum m "rx.digest" > 0);
        Alcotest.(check bool) "Need sent" true (Metrics.sum m "rx.need" > 0);
        (* restore the majority: the pulled message must get ordered *)
        Cluster.recover cluster 2;
        Cluster.recover cluster 3;
        Cluster.recover cluster 4;
        let ok =
          Cluster.run_until cluster ~until:5_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count:1 ())
            ()
        in
        Alcotest.(check bool) "ordered once majority returns" true ok;
        check_ok "props" (Checks.all ~cluster ~good:(List.init 5 Fun.id) ()));
    test "full-gossip mode sends no digests or Needs" (fun () ->
        (* Fig. 3's literal gossip on the alternative stack, under loss
           and duplication: every tick ships the full set, so no digest
           goes out and there is nothing to pull *)
        let net = Net.create ~loss:0.1 ~dup:0.05 () in
        let cluster, _ =
          run_workload ~seed:42 ~msgs:10 ~net ~until:60_000_000
            (Factory.make
               { Protocol.paper_alternative with gossip_full_every = 1 })
        in
        let m = Cluster.metrics cluster in
        Alcotest.(check int) "rx.digest" 0 (Metrics.sum m "rx.digest");
        Alcotest.(check int) "rx.need" 0 (Metrics.sum m "rx.need"));
    test "delta mode: digests dominate, full fallback still flows" (fun () ->
        let cluster = Cluster.create basic ~seed:43 ~n:3 () in
        Cluster.run cluster ~until:100_000;
        let m = Cluster.metrics cluster in
        let digests = Metrics.sum m "rx.digest" in
        let fulls = Metrics.sum m "rx.gossip" in
        Alcotest.(check bool) "digests dominate" true (digests > 3 * fulls);
        Alcotest.(check bool) "full fallback present" true (fulls > 0));
    test "gossip_full_every=1 degenerates to full gossip" (fun () ->
        let cluster, _ =
          run_workload ~seed:44 ~msgs:8
            (Factory.make { Protocol.paper_basic with gossip_full_every = 1 })
        in
        Alcotest.(check int) "no digests" 0
          (Metrics.sum (Cluster.metrics cluster) "rx.digest"));
    test "delta ≡ full gossip: delivered sets match across 24 seeds" (fun () ->
        for seed = 1 to 24 do
          let full = delta_equiv_run ~gossip_full_every:1 ~seed in
          let delta =
            delta_equiv_run
              ~gossip_full_every:Protocol.paper_alternative.gossip_full_every
              ~seed
          in
          if full <> delta then
            Alcotest.failf "seed %d: delivered sets diverge (full %d, delta %d)"
              seed (fst full) (fst delta)
        done);
  ]

(* Like [delta_equiv_run] but varying the dissemination topology: the
   ring must deliver exactly what gossip delivers under the same lossy,
   duplicating, crash-recovering schedule — the topology only changes how
   payloads travel, never what gets ordered. *)
let ring_equiv_run ~dissemination ~seed =
  let net = Net.create ~loss:0.12 ~dup:0.05 () in
  let stack =
    Factory.make { Protocol.paper_alternative with dissemination; window = 2 }
  in
  let cluster = Cluster.create stack ~seed ~n:3 ~net () in
  let rng = Rng.create (seed + 9191) in
  Cluster.at cluster 12_000 (fun () -> Cluster.crash cluster 1);
  Cluster.at cluster 30_000 (fun () -> Cluster.recover cluster 1);
  let count =
    Workload.open_loop cluster ~rng ~senders:[ 0; 2 ] ~start:1_000 ~stop:40_000
      ~mean_gap:900 ()
  in
  let ok =
    Cluster.run_until cluster ~until:400_000_000
      ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
      ()
  in
  if not ok then
    Alcotest.failf "seed %d (%s): did not quiesce" seed
      (match dissemination with `Gossip -> "gossip" | `Ring -> "ring");
  check_ok
    (Printf.sprintf "properties (seed %d, %s)" seed
       (match dissemination with `Gossip -> "gossip" | `Ring -> "ring"))
    (Checks.all ~cluster ~good:[ 0; 1; 2 ] ());
  ( Cluster.delivered_count cluster 0,
    Abcast_core.Vclock.streams (Cluster.delivery_vc cluster 0) )

let ring_tests =
  [
    test "ring: payloads travel the ring, not the gossip pull" (fun () ->
        let cluster, count =
          run_workload ~seed:71 ~msgs:12
            (Factory.make
               { Protocol.paper_alternative with dissemination = `Ring })
        in
        Alcotest.(check bool) "delivered" true
          (Cluster.delivered_count cluster 0 >= count);
        let m = Cluster.metrics cluster in
        Alcotest.(check bool) "ring batches flowed" true
          (Metrics.sum m "rx.ring" > 0));
    test "ring: a payload circles at most once (hop bound)" (fun () ->
        (* n=4, single broadcast, lossless net: the origin sends hops=3,
           each forward decrements, so at most n-1 = 3 ring sends carry
           this payload. With the coalesced flush there is exactly one
           ring message per hop here. *)
        let cluster =
          Cluster.create
            (Factory.make
               { Protocol.paper_alternative with dissemination = `Ring })
            ~seed:72 ~n:4 ()
        in
        Cluster.at cluster 1_000 (fun () ->
            ignore (Cluster.broadcast cluster ~node:0 "once-around"));
        Cluster.run cluster ~until:10_000;
        let rx_ring = Metrics.sum (Cluster.metrics cluster) "rx.ring" in
        Alcotest.(check bool)
          (Printf.sprintf "ring receives bounded (saw %d)" rx_ring)
          true
          (rx_ring > 0 && rx_ring <= 3));
    test "ring: torn ring repaired by the digest/pull fallback" (fun () ->
        (* Crash node 1 — node 0's successor — so ring forwarding from 0
           is cut. Nodes 2..4 must still learn node 0's payloads through
           the retained gossip path, and order them (majority 0,2,3,4 is
           up). *)
        let cluster =
          Cluster.create
            (Factory.make
               { Protocol.paper_alternative with dissemination = `Ring })
            ~seed:73 ~n:5 ()
        in
        Cluster.at cluster 500 (fun () -> Cluster.crash cluster 1);
        Cluster.at cluster 1_000 (fun () ->
            ignore (Cluster.broadcast cluster ~node:0 "around-the-tear"));
        let ok =
          Cluster.run_until cluster ~until:10_000_000
            ~pred:(fun () ->
              List.for_all
                (fun i -> Cluster.delivered_count cluster i >= 1)
                [ 0; 2; 3; 4 ])
            ()
        in
        Alcotest.(check bool) "survivors deliver past the tear" true ok;
        check_ok "props" (Checks.all ~cluster ~good:[ 0; 2; 3; 4 ] ()));
    test "ring ≡ gossip: delivered sets match across 20 seeds" (fun () ->
        for seed = 1 to 20 do
          let gossip = ring_equiv_run ~dissemination:`Gossip ~seed in
          let ring = ring_equiv_run ~dissemination:`Ring ~seed in
          if gossip <> ring then
            Alcotest.failf
              "seed %d: delivered sets diverge (gossip %d, ring %d)" seed
              (fst gossip) (fst ring)
        done);
  ]

let suite =
  ( "protocol",
    basic_tests @ alternative_tests @ window_tests @ direct_api_tests
    @ determinism_tests @ edge_tests @ delta_gossip_tests @ ring_tests
    @ metrics_tests )
