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
  let counts () = List.map (fun i -> Cluster.delivered_count cluster i) good in
  let rec settle tries prev =
    Cluster.run cluster ~until:(Cluster.now cluster + 2_000_000);
    let cur = counts () in
    if cur = prev || tries > 30 then cur else settle (tries + 1) cur
  in
  let final = settle 0 (counts ()) in
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

let fixed_seed_tests =
  List.concat_map
    (fun seed ->
      [
        slow_test
          (Printf.sprintf "basic survives adversarial schedule (seed %d)" seed)
          (fun () -> ignore (episode ~stack:basic ~seed ~n:3 ~n_bad:0 ()));
      ])
    [ 101; 202; 303; 404 ]

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
    @ List.map (QCheck_alcotest.to_alcotest ~long:true) random_props )
