(* Tests for the crash-stop baselines: reliable broadcast and the
   Chandra-Toueg-style no-logging stack. *)

open Helpers
module Rbcast = Abcast_baseline.Rbcast
module Ct = Abcast_baseline.Ct_abcast

let rb_cluster ?(n = 3) ?(seed = 1) ?net () =
  let eng = Engine.create ~seed ~n ?net () in
  let nodes = Array.make n None in
  let logs = Array.make n [] in
  for i = 0 to n - 1 do
    Engine.set_behavior eng i (fun io ->
        let rb =
          Rbcast.create io ~deliver:(fun p -> logs.(i) <- p.Payload.id :: logs.(i))
        in
        nodes.(i) <- Some rb;
        Rbcast.handle rb)
  done;
  Engine.start_all eng;
  let node i = match nodes.(i) with Some rb -> rb | None -> assert false in
  (eng, node, logs)

let rbcast_tests =
  [
    test "rbcast: everyone delivers exactly once" (fun () ->
        let eng, node, logs = rb_cluster () in
        Engine.at eng 100 (fun () -> ignore (Rbcast.broadcast (node 0) "hello"));
        Engine.run eng ~until:1_000_000;
        Array.iter
          (fun log -> Alcotest.(check int) "once" 1 (List.length log))
          logs);
    test "rbcast: duplicating network still delivers once" (fun () ->
        let net = Net.create ~dup:0.5 () in
        let eng, node, logs = rb_cluster ~net () in
        Engine.at eng 100 (fun () -> ignore (Rbcast.broadcast (node 1) "x"));
        Engine.run eng ~until:1_000_000;
        Array.iter
          (fun log -> Alcotest.(check int) "once" 1 (List.length log))
          logs);
    test "rbcast: relay covers a sender that crashes after sending" (fun () ->
        (* crash-stop model: sender dies right after its multisend; the
           relay at the first receiver completes the broadcast *)
        let eng, node, logs = rb_cluster ~seed:2 () in
        Engine.at eng 100 (fun () -> ignore (Rbcast.broadcast (node 0) "legacy"));
        Engine.at eng 5_000 (fun () -> Engine.crash eng 0);
        Engine.run eng ~until:1_000_000;
        List.iter
          (fun i -> Alcotest.(check int) "delivered" 1 (List.length logs.(i)))
          [ 1; 2 ]);
    test "rbcast: delivered_count tracks deliveries" (fun () ->
        let eng, node, _ = rb_cluster () in
        Engine.at eng 100 (fun () -> ignore (Rbcast.broadcast (node 0) "a"));
        Engine.at eng 200 (fun () -> ignore (Rbcast.broadcast (node 0) "b"));
        Engine.run eng ~until:1_000_000;
        Alcotest.(check int) "two" 2 (Rbcast.delivered_count (node 2)));
    test "rbcast: ids are distinct per broadcast" (fun () ->
        let _eng, node, _ = rb_cluster () in
        let a = Rbcast.broadcast (node 0) "a" in
        let b = Rbcast.broadcast (node 0) "b" in
        Alcotest.(check bool) "distinct" false (Payload.equal_id a b));
  ]

let ct_tests =
  [
    test "ct-stop: total order in crash-free runs" (fun () ->
        ignore (run_workload ~seed:50 ~msgs:20 (Ct.stack ())));
    test "ct-stop: zero accounted log operations (E7)" (fun () ->
        let cluster, _ = run_workload ~seed:51 ~msgs:20 (Ct.stack ()) in
        Alcotest.(check int) "none" 0
          (Metrics.sum_prefix (Cluster.metrics cluster) "log_ops"));
    test "ct-stop: same message pattern as the basic protocol" (fun () ->
        (* identical code path, identical seeds: message counts match
           exactly, the only difference is logging *)
        let msgs_of stack =
          let cluster, _ = run_workload ~seed:52 ~msgs:15 stack in
          Metrics.sum (Cluster.metrics cluster) "msgs_sent"
        in
        Alcotest.(check int) "equal" (msgs_of (Ct.stack ()))
          (msgs_of (Factory.make Protocol.paper_basic)));
    test "ct-stop: crash-stop minority failure tolerated" (fun () ->
        let cluster = Cluster.create (Ct.stack ()) ~seed:53 ~n:3 () in
        Cluster.at cluster 500 (fun () -> Cluster.crash cluster 2);
        let rng = Rng.create 9 in
        let count =
          Workload.open_loop cluster ~rng ~senders:[ 0; 1 ] ~start:1_000
            ~stop:20_000 ~mean_gap:1_500 ()
        in
        let ok =
          Cluster.run_until cluster ~until:20_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~among:[ 0; 1 ] ~count ())
            ()
        in
        Alcotest.(check bool) "survivors deliver" true ok;
        check_ok "props" (Checks.all ~cluster ~good:[ 0; 1 ] ()));
  ]

let suite = ("baseline", rbcast_tests @ ct_tests)
