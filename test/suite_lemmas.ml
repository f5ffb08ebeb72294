(* Tests for the P1-P7 lemma monitors — including negative tests that
   tamper with a process's stable storage to prove the monitor actually
   fires. *)

open Helpers
module Lemmas = Abcast_harness.Lemmas
module Keys = Abcast_consensus.Consensus_intf.Keys

let healthy_run stack =
  let cluster = Cluster.create stack ~seed:81 ~n:3 () in
  let lemmas = Lemmas.attach cluster () in
  let rng = Rng.create 82 in
  let count =
    Workload.open_loop cluster ~rng ~senders:[ 0; 1; 2 ] ~start:1_000
      ~stop:40_000 ~mean_gap:1_500 ()
  in
  let ok =
    Cluster.run_until cluster ~until:30_000_000
      ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
      ()
  in
  Alcotest.(check bool) "quiesced" true ok;
  (* settle so idle processes converge on the final round *)
  Cluster.run cluster ~until:(Cluster.now cluster + 200_000);
  (cluster, lemmas)

let tests =
  [
    test "healthy basic run: no lemma violations" (fun () ->
        let _, lemmas = healthy_run (Factory.make Protocol.paper_basic) in
        check_ok "P1-P5" (Lemmas.report lemmas);
        check_ok "P3" (Lemmas.check_converged lemmas ~good:[ 0; 1; 2 ]));
    test "healthy alternative run with crash: no lemma violations" (fun () ->
        let cluster =
          Cluster.create
            (Factory.make
               {
                 Protocol.paper_alternative with
                 checkpoint_period = Some 15_000;
                 delta = Some 3;
               })
            ~seed:83 ~n:3 ()
        in
        let lemmas = Lemmas.attach cluster ~period:3_000 () in
        let rng = Rng.create 84 in
        Cluster.at cluster 10_000 (fun () -> Cluster.crash cluster 2);
        Cluster.at cluster 60_000 (fun () -> Cluster.recover cluster 2);
        let count =
          Workload.open_loop cluster ~rng ~senders:[ 0; 1 ] ~start:1_000
            ~stop:80_000 ~mean_gap:1_200 ()
        in
        let ok =
          Cluster.run_until cluster ~until:60_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
            ()
        in
        Alcotest.(check bool) "quiesced" true ok;
        Cluster.run cluster ~until:(Cluster.now cluster + 300_000);
        check_ok "P1-P5 under checkpointing and state transfer"
          (Lemmas.report lemmas);
        check_ok "P3" (Lemmas.check_converged lemmas ~good:[ 0; 1; 2 ]));
    test "monitor catches a mutated proposal (anti-P4)" (fun () ->
        let cluster, lemmas = healthy_run (Factory.make Protocol.paper_basic) in
        check_ok "pre-corruption" (Lemmas.report lemmas);
        Alcotest.(check bool) "proposal exists" true
          (Cluster.read_storage cluster 0 (Keys.proposal 0) <> None);
        Cluster.corrupt_storage cluster 0 ~key:(Keys.proposal 0) "tampered";
        Lemmas.sample_now lemmas;
        Alcotest.(check bool) "detected" true
          (Result.is_error (Lemmas.report lemmas));
        (match Lemmas.violations lemmas with
        | v :: _ ->
          Alcotest.(check bool) "mentions proposal" true
            (Astring.String.is_infix ~affix:"proposal" v)
        | [] -> Alcotest.fail "no violation recorded"));
    test "monitor catches a mutated decision (anti-P5)" (fun () ->
        let cluster, lemmas = healthy_run (Factory.make Protocol.paper_basic) in
        Cluster.corrupt_storage cluster 1 ~key:(Keys.decision 0) "forged";
        Lemmas.sample_now lemmas;
        Alcotest.(check bool) "detected" true
          (Result.is_error (Lemmas.report lemmas)));
    test "monitor catches divergent decisions (anti-agreement)" (fun () ->
        let cluster, lemmas = healthy_run (Factory.make Protocol.paper_basic) in
        (* forge a decision for a brand-new instance at two processes *)
        Cluster.corrupt_storage cluster 0 ~key:(Keys.decision 999) "alpha";
        Cluster.corrupt_storage cluster 1 ~key:(Keys.decision 999) "beta";
        Lemmas.sample_now lemmas;
        Alcotest.(check bool) "detected" true
          (Result.is_error (Lemmas.report lemmas)));
    test "monitor catches a rewound checkpoint (anti-P1/P2)" (fun () ->
        let cluster =
          Cluster.create
            (Factory.make
               {
                 Protocol.paper_alternative with
                 checkpoint_period = Some 10_000;
               })
            ~seed:85 ~n:3 ()
        in
        let lemmas = Lemmas.attach cluster ~period:2_000 () in
        let rng = Rng.create 86 in
        let count =
          Workload.open_loop cluster ~rng ~senders:[ 0; 1; 2 ] ~start:1_000
            ~stop:50_000 ~mean_gap:1_000 ()
        in
        let ok =
          Cluster.run_until cluster ~until:30_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
            ()
        in
        Alcotest.(check bool) "quiesced" true ok;
        check_ok "pre" (Lemmas.report lemmas);
        (* rewind the checkpoint round to 0 *)
        Cluster.corrupt_storage cluster 0 ~key:Stable.checkpoint_key
          (Stable.encode_checkpoint
             (0, Abcast_core.Agreed.snapshot (Abcast_core.Agreed.create ())));
        Lemmas.sample_now lemmas;
        Alcotest.(check bool) "detected" true
          (Result.is_error (Lemmas.report lemmas)));
  ]

let suite = ("lemmas", tests)
