(* Adversarial crash/recovery schedules (experiment E9): randomized fault
   plans with the four properties checked over good processes. *)

open Helpers
module Faults = Abcast_sim.Faults

let basic = Factory.make Protocol.paper_basic

(* One randomized episode: build a plan, pump a workload from whichever
   processes are up, run past the stability horizon, check properties. *)
let episode ?(partition_churn = false) ?(compacted = false) ~stack ~seed ~n
    ~n_bad () =
  let cluster = Cluster.create stack ~seed ~n () in
  let lemmas = Abcast_harness.Lemmas.attach cluster () in
  let rng = Rng.create (seed + 7777) in
  let stability = 150_000 in
  if partition_churn then begin
    (* random partition windows during the disturbed period: isolate one
       process at a time, heal before stability *)
    let net = Cluster.net cluster in
    let t = ref (5_000 + Rng.int rng 20_000) in
    while !t < stability - 20_000 do
      let victim = Rng.int rng n in
      let cut_at = !t and heal_at = !t + 5_000 + Rng.int rng 15_000 in
      Cluster.at cluster cut_at (fun () ->
          Net.partition net (fun ~src ~dst -> src = victim || dst = victim));
      Cluster.at cluster (min heal_at (stability - 1)) (fun () -> Net.heal net);
      t := heal_at + 5_000 + Rng.int rng 20_000
    done
  end;
  let plan = Faults.plan_random ~rng ~n ~n_bad ~stability () in
  let good = Faults.good_nodes plan in
  Cluster.apply_faults cluster plan;
  let attempts =
    Workload.open_loop cluster ~rng ~senders:(List.init n Fun.id) ~start:1_000
      ~stop:stability ~mean_gap:4_000 ()
  in
  ignore attempts;
  (* Run long past the horizon, until the good processes quiesce: same
     delivered count twice, 2 simulated seconds apart. *)
  Cluster.run cluster ~until:(plan.horizon + 2_000_000);
  let final = Cluster.settle cluster ~among:good in
  (* All good processes quiesce at the same count. *)
  (match final with
  | c :: rest ->
    List.iter
      (fun c' ->
        if c <> c' then
          Alcotest.failf "seed %d: good processes diverge: %d vs %d" seed c c')
      rest
  | [] -> Alcotest.fail "no good processes");
  check_ok
    (Printf.sprintf "seed %d properties" seed)
    (if compacted then Checks.all_compacted ~cluster ~good ()
     else Checks.all ~cluster ~good ());
  check_ok
    (Printf.sprintf "seed %d lemmas P1-P5" seed)
    (Abcast_harness.Lemmas.report lemmas);
  check_ok
    (Printf.sprintf "seed %d lemma P3 (convergence)" seed)
    (Abcast_harness.Lemmas.check_converged lemmas ~good);
  cluster

(* §4.2: an idle cluster runs no consensus. Node 0 is down for good, and
   nodes 1 and 2 hold seq 1 of its stream without seq 0, which the basic
   protocol never logged. The first instance that decides it skips it as
   a gap; it must then stay parked, not be proposed round after round,
   until seq 0 arrives. *)
let idle_cluster_test =
  test "an idle cluster runs no consensus on a payload whose predecessor is lost"
    (fun () ->
      let module P = Protocol.Make (Abcast_consensus.Paxos) in
      let eng = Engine.create ~seed:5 ~n:3 () in
      let protos : P.t option array = Array.make 3 None in
      for i = 0 to 2 do
        Engine.set_behavior eng i (fun io ->
            let p = P.create Protocol.paper_basic io ~on_deliver:ignore in
            protos.(i) <- Some p;
            P.handler p)
      done;
      Engine.start_all eng;
      Engine.crash eng 0;
      let get i = match protos.(i) with Some p -> p | None -> assert false in
      let seq s = Payload.make { Payload.origin = 0; boot = 0; seq = s } "m" in
      let hand s =
        List.iter
          (fun i ->
            P.handler (get i) ~src:0
              (P.Gossip { k = 0; len = 0; unordered = [ seq s ]; cert = None }))
          [ 1; 2 ]
      in
      Engine.at eng 1_000 (fun () -> hand 1);
      Engine.run eng ~until:500_000;
      let rounds () = List.map (fun i -> P.round (get i)) [ 1; 2 ] in
      let settled = rounds () in
      Alcotest.(check bool) "the orphan ran at most a few instances" true
        (List.for_all (fun k -> k <= 3) settled);
      Engine.run eng ~until:5_000_000;
      Alcotest.(check (list int)) "no consensus while idle" settled (rounds ());
      Alcotest.(check (list int)) "nothing delivered" [ 0; 0 ]
        (List.map (fun i -> P.delivered_count (get i)) [ 1; 2 ]);
      (* the predecessor arrives: both deliver, in stream order *)
      hand 0;
      Engine.run eng ~until:6_000_000;
      Alcotest.(check (list int)) "delivered once seq 0 came" [ 2; 2 ]
        (List.map (fun i -> P.delivered_count (get i)) [ 1; 2 ]))

let fixed_seed_tests =
  List.concat_map
    (fun seed ->
      [
        slow_test
          (Printf.sprintf "basic survives adversarial schedule (seed %d)" seed)
          (fun () -> ignore (episode ~stack:basic ~seed ~n:3 ~n_bad:0 ()));
      ])
    [ 101; 202; 303; 404 ]

(* E9 basic episodes in which an idle cluster kept deciding a payload
   the gap rule always skips, until P3 caught two good processes one
   round apart at quiescence. 753 failed before Paxos
   followers learned on accept; the others failed with that change
   before gap-skipped payloads were parked. *)
let gap_skip_seed_tests =
  List.map
    (fun seed ->
      slow_test
        (Printf.sprintf "basic parks a gap-skipped payload (seed %d)" seed)
        (fun () -> ignore (episode ~stack:basic ~seed ~n:3 ~n_bad:1 ())))
    [ 753; 8174; 8609; 9567 ]

let bad_process_tests =
  List.concat_map
    (fun seed ->
      [
        slow_test
          (Printf.sprintf "basic tolerates a bad process (seed %d)" seed)
          (fun () -> ignore (episode ~stack:basic ~seed ~n:3 ~n_bad:1 ()));
        slow_test
          (Printf.sprintf "alternative tolerates a bad process (seed %d)" seed)
          (fun () ->
            ignore
              (episode
                 ~stack:
                   (Factory.make
                      {
                        Protocol.paper_alternative with
                        checkpoint_period = Some 20_000;
                        delta = Some 3;
                      })
                 ~seed ~n:3 ~n_bad:1 ()));
      ])
    [ 555; 666 ]

let five_node_tests =
  [
    slow_test "n=5 with 2 bad processes (basic)" (fun () ->
        ignore (episode ~stack:basic ~seed:808 ~n:5 ~n_bad:2 ()));
    slow_test "n=5 with 2 bad processes (alternative)" (fun () ->
        ignore
          (episode
             ~stack:(Factory.make
                       {
                         Protocol.paper_alternative with
                         checkpoint_period = Some 25_000;
                         delta = Some 4;
                       })
             ~seed:909 ~n:5 ~n_bad:2 ()));
    slow_test "partition churn + crashes (basic)" (fun () ->
        ignore
          (episode ~partition_churn:true ~stack:basic ~seed:1201
             ~n:3 ~n_bad:1 ()));
    slow_test "partition churn + crashes (alternative)" (fun () ->
        ignore
          (episode ~partition_churn:true
             ~stack:(Factory.make
                       {
                         Protocol.paper_alternative with
                         checkpoint_period = Some 25_000;
                         delta = Some 3;
                       })
             ~seed:1301 ~n:3 ~n_bad:1 ()));
    slow_test "partition churn + crashes (window=4)" (fun () ->
        ignore
          (episode ~partition_churn:true
             ~stack:(Factory.make
                       { Protocol.paper_alternative with window = 4 })
             ~seed:1401 ~n:3 ~n_bad:1 ()));
  ]

let kitchen_sink_tests =
  [
    slow_test "everything enabled: window+app+early-return+churn" (fun () ->
        (* every feature at once: windowed sequencer, application
           checkpoints, incremental early-return logging, state transfer,
           partition churn, crash/recovery, a bad process *)
        let replicas = Array.make 3 None in
        let module R = Abcast_apps.Kv.Replica in
        let stack =
          Factory.make
            ~app_factory:(R.factory (fun i r -> replicas.(i) <- Some r))
            {
              Protocol.paper_alternative with
              window = 3;
              checkpoint_period = Some 20_000;
              delta = Some 3;
              early_return = true;
              incremental = true;
            }
        in
        let cluster =
          episode ~partition_churn:true ~compacted:true ~stack ~seed:4242 ~n:3
            ~n_bad:1 ()
        in
        (* on top of the episode's checks: KV replicas of good processes
           converged *)
        ignore cluster;
        let digests =
          List.filter_map
            (fun r ->
              Option.map (fun r -> Abcast_apps.Kv.digest (R.state r)) r)
            (Array.to_list replicas)
        in
        match digests with
        | d :: rest -> List.iter (Alcotest.(check string) "replicas agree" d) rest
        | [] -> Alcotest.fail "no replicas");
  ]

let random_props =
  [
    QCheck.Test.make ~name:"E9: random schedules keep all four properties"
      ~count:12
      QCheck.(int_range 1 100_000)
      (fun seed ->
        ignore (episode ~stack:basic ~seed ~n:3 ~n_bad:1 ());
        true);
    QCheck.Test.make
      ~name:"E9: alternative protocol under random schedules" ~count:9
      QCheck.(int_range 1 100_000)
      (fun seed ->
        ignore
          (episode
             ~stack:(Factory.make
                       {
                         Protocol.paper_alternative with
                         checkpoint_period = Some 30_000;
                         delta = Some 5;
                       })
             ~seed ~n:3 ~n_bad:1 ());
        true);
  ]

let suite =
  ( "faults",
    fixed_seed_tests @ bad_process_tests @ five_node_tests
    @ kitchen_sink_tests
    @ List.map (QCheck_alcotest.to_alcotest ~long:true) random_props
    @ (idle_cluster_test :: gap_skip_seed_tests) )
