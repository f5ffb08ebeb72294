(* Tests of the Consensus building blocks (Paxos and Coord), run through a
   small single-instance rig, plus the Multi instance manager.

   The rig gives every node a "perfect" leader oracle (lowest currently-up
   process) so consensus liveness can be tested in isolation from the
   failure detector; the full stack uses the heartbeat detector and is
   tested in suite_protocol. *)

open Helpers
module Intf = Abcast_consensus.Consensus_intf

module Rig (C : Intf.S) = struct
  type t = {
    eng : C.msg Engine.t;
    nodes : C.t option array;
    decisions : (int * Intf.value) list ref; (* node, value *)
  }

  let make ?(n = 3) ?(seed = 1) ?net () =
    let eng = Engine.create ~seed ~n ?net () in
    let nodes = Array.make n None in
    let decisions = ref [] in
    let leader () =
      let rec first i = if Engine.is_up eng i then i else first (i + 1) in
      first 0
    in
    for i = 0 to n - 1 do
      Engine.set_behavior eng i (fun io ->
          let c =
            C.create io ~node:(C.node io) ~instance:0 ~leader ~on_decide:(fun v ->
                decisions := (i, v) :: !decisions)
          in
          nodes.(i) <- Some c;
          C.handle c)
    done;
    Engine.start_all eng;
    { eng; nodes; decisions }

  let node t i = match t.nodes.(i) with Some c -> c | None -> assert false

  let propose t i v = C.propose (node t i) v

  let decided_everywhere t ~up =
    List.for_all (fun i -> C.decision (node t i) <> None) up

  let run_to_decision ?(up = [ 0; 1; 2 ]) ?(until = 2_000_000) t =
    let ok =
      Engine.run_until t.eng ~until ~pred:(fun () -> decided_everywhere t ~up) ()
    in
    if not ok then Alcotest.fail "consensus did not terminate";
    let values =
      List.map (fun i -> Option.get (C.decision (node t i))) up
    in
    match values with
    | [] -> Alcotest.fail "no processes"
    | v :: rest ->
      List.iter (Alcotest.(check string) "uniform agreement" v) rest;
      v

  let tests name =
    [
      test (name ^ ": all propose, all decide one proposal") (fun () ->
          let t = make () in
          List.iter (fun i -> propose t i (Printf.sprintf "v%d" i)) [ 0; 1; 2 ];
          let v = run_to_decision t in
          Alcotest.(check bool) "validity" true (List.mem v [ "v0"; "v1"; "v2" ]));
      test (name ^ ": n=5") (fun () ->
          let t = make ~n:5 () in
          List.iter (fun i -> propose t i (Printf.sprintf "v%d" i)) [ 0; 1; 2; 3; 4 ];
          let v = run_to_decision ~up:[ 0; 1; 2; 3; 4 ] t in
          Alcotest.(check bool) "validity" true
            (List.mem v [ "v0"; "v1"; "v2"; "v3"; "v4" ]));
      test (name ^ ": decides under 20% message loss") (fun () ->
          let net = Net.create ~loss:0.2 () in
          let t = make ~net ~seed:5 () in
          List.iter (fun i -> propose t i (Printf.sprintf "v%d" i)) [ 0; 1; 2 ];
          ignore (run_to_decision ~until:20_000_000 t));
      test (name ^ ": survives a minority permanent crash") (fun () ->
          let t = make () in
          List.iter (fun i -> propose t i (Printf.sprintf "v%d" i)) [ 0; 1; 2 ];
          Engine.at t.eng 1_000 (fun () -> Engine.crash t.eng 2);
          ignore (run_to_decision ~up:[ 0; 1 ] t));
      test (name ^ ": survives leader crash") (fun () ->
          let t = make () in
          List.iter (fun i -> propose t i (Printf.sprintf "v%d" i)) [ 0; 1; 2 ];
          Engine.at t.eng 1_000 (fun () -> Engine.crash t.eng 0);
          ignore (run_to_decision ~up:[ 1; 2 ] ~until:10_000_000 t));
      test (name ^ ": crash-recovery of a participant") (fun () ->
          let t = make ~seed:3 () in
          List.iter (fun i -> propose t i (Printf.sprintf "v%d" i)) [ 0; 1; 2 ];
          Engine.at t.eng 500 (fun () -> Engine.crash t.eng 1);
          Engine.at t.eng 50_000 (fun () -> Engine.recover t.eng 1);
          let v = run_to_decision ~until:10_000_000 t in
          Alcotest.(check bool) "validity" true (List.mem v [ "v0"; "v1"; "v2" ]));
      test (name ^ ": proposal is logged and idempotent (P4)") (fun () ->
          let t = make () in
          propose t 0 "first";
          propose t 0 "second";
          Alcotest.(check (option string))
            "first wins" (Some "first")
            (C.proposal (node t 0)));
      test (name ^ ": re-propose after recovery keeps logged value") (fun () ->
          let t = make ~seed:7 () in
          propose t 0 "original";
          Engine.at t.eng 200 (fun () -> Engine.crash t.eng 0);
          Engine.at t.eng 40_000 (fun () ->
              Engine.recover t.eng 0;
              (* the upper layer re-proposes with a different value; the
                 logged one must win *)
              propose t 0 "changed");
          List.iter (fun i -> propose t i (Printf.sprintf "v%d" i)) [ 1; 2 ];
          let v = run_to_decision ~until:10_000_000 t in
          Alcotest.(check bool) "validity incl. original only" true
            (List.mem v [ "original"; "v1"; "v2" ]);
          Alcotest.(check (option string))
            "logged" (Some "original")
            (C.proposal (node t 0)));
      test (name ^ ": decision is stable across recovery (P5)") (fun () ->
          let t = make ~seed:11 () in
          List.iter (fun i -> propose t i (Printf.sprintf "v%d" i)) [ 0; 1; 2 ];
          let v = run_to_decision t in
          Engine.crash t.eng 1;
          Engine.recover t.eng 1;
          Engine.run t.eng ~until:Int.max_int |> ignore;
          Alcotest.(check (option string))
            "same decision" (Some v)
            (C.decision (node t 1)));
      test (name ^ ": uniform agreement includes bad processes") (fun () ->
          (* node 2 decides then crashes forever; its logged decision must
             equal the survivors' *)
          let t = make ~seed:13 () in
          List.iter (fun i -> propose t i (Printf.sprintf "v%d" i)) [ 0; 1; 2 ];
          let ok =
            Engine.run_until t.eng ~until:5_000_000
              ~pred:(fun () -> C.decision (node t 2) <> None)
              ()
          in
          Alcotest.(check bool) "node2 decided" true ok;
          let v2 = Option.get (C.decision (node t 2)) in
          Engine.crash t.eng 2;
          let v = run_to_decision ~up:[ 0; 1 ] t in
          Alcotest.(check string) "uniform" v v2);
      test (name ^ ": late process learns an old decision") (fun () ->
          let t = make ~seed:17 () in
          (* node 2 is down from the start of the protocol *)
          Engine.crash t.eng 2;
          List.iter (fun i -> propose t i (Printf.sprintf "v%d" i)) [ 0; 1 ];
          let v = run_to_decision ~up:[ 0; 1 ] t in
          Engine.recover t.eng 2;
          Engine.at t.eng (Engine.now t.eng + 100) (fun () -> propose t 2 "late");
          let ok =
            Engine.run_until t.eng ~until:20_000_000
              ~pred:(fun () -> C.decision (node t 2) <> None)
              ()
          in
          Alcotest.(check bool) "learned" true ok;
          Alcotest.(check (option string)) "same" (Some v) (C.decision (node t 2)));
    ]
end

module Paxos_rig = Rig (Abcast_consensus.Paxos)
module Coord_rig = Rig (Abcast_consensus.Coord)

(* Safety must never depend on the quality of the leader oracle: give
   every process a lying oracle that always answers "you are the leader"
   (permanent duel) on a lossy network; whenever decisions happen, they
   must agree and be valid. *)
module Adversarial_oracle (C : Intf.S) = struct
  let make ~seed ~loss =
    let net = Net.create ~loss () in
    let eng = Engine.create ~seed ~n:3 ~net () in
    let nodes = Array.make 3 None in
    for i = 0 to 2 do
      Engine.set_behavior eng i (fun io ->
          let c =
            C.create io ~node:(C.node io) ~instance:0
              ~leader:(fun () -> i) (* everyone believes in themselves *)
              ~on_decide:(fun _ -> ())
          in
          nodes.(i) <- Some c;
          C.handle c)
    done;
    Engine.start_all eng;
    let node i = match nodes.(i) with Some c -> c | None -> assert false in
    for i = 0 to 2 do
      C.propose (node i) (Printf.sprintf "v%d" i)
    done;
    Engine.run eng ~until:20_000_000;
    let decisions = List.filter_map (fun i -> C.decision (node i)) [ 0; 1; 2 ] in
    (match decisions with
    | [] -> () (* liveness may be lost under a permanent duel: allowed *)
    | v :: rest ->
      Alcotest.(check bool) "validity" true (List.mem v [ "v0"; "v1"; "v2" ]);
      List.iter (Alcotest.(check string) "agreement under duel" v) rest);
    List.length decisions

  let tests name =
    [
      test (name ^ ": safe under a permanently lying oracle") (fun () ->
          ignore (make ~seed:21 ~loss:0.0));
      test (name ^ ": safe under a lying oracle with 30% loss") (fun () ->
          ignore (make ~seed:22 ~loss:0.3));
      test (name ^ ": several seeds, all safe") (fun () ->
          List.iter (fun seed -> ignore (make ~seed ~loss:0.1)) [ 1; 2; 3; 4; 5 ]);
    ]
end

module Paxos_adv = Adversarial_oracle (Abcast_consensus.Paxos)
module Coord_adv = Adversarial_oracle (Abcast_consensus.Coord)

(* Property test: random crash/recovery schedules, agreement must hold. *)
let random_schedule_prop (module C : Intf.S) name =
  QCheck.Test.make ~name ~count:35 QCheck.(int_range 0 10_000)
    (fun seed ->
      let module R = Rig (C) in
      let t = R.make ~seed ~n:3 () in
      let rng = Rng.create (seed * 31) in
      List.iter (fun i -> R.propose t i (Printf.sprintf "v%d" i)) [ 0; 1; 2 ];
      (* one random node bounces once; a majority stays up *)
      let victim = Rng.int rng 3 in
      let down_at = 100 + Rng.int rng 30_000 in
      let up_at = down_at + 1_000 + Rng.int rng 60_000 in
      Abcast_sim.Faults.down_between t.eng ~node:victim ~from_:down_at ~until:up_at;
      let v = R.run_to_decision ~until:120_000_000 t in
      List.mem v [ "v0"; "v1"; "v2" ])

(* --- Multi instance manager (over both implementations) ------------ *)

module Multi_suite (C : Intf.S) = struct
  module M = Abcast_consensus.Multi.Make (C)

  let multi_rig ?(n = 3) ?(seed = 1) ?(on_behind = fun _ ~src:_ -> ()) () =
  let eng = Engine.create ~seed ~n () in
  let nodes = Array.make n None in
  let leader () =
    let rec first i = if Engine.is_up eng i then i else first (i + 1) in
    first 0
  in
  for i = 0 to n - 1 do
    Engine.set_behavior eng i (fun io ->
        let m =
          M.create io ~leader ~on_ready:ignore ~on_behind:(on_behind i)
        in
        nodes.(i) <- Some m;
        M.handle m)
  done;
  Engine.start_all eng;
  let node i = match nodes.(i) with Some m -> m | None -> assert false in
  (eng, node)

  let tests name =
    [
    test (name ^ " multi: instances are independent") (fun () ->
        let eng, node = multi_rig () in
        for k = 0 to 3 do
          for i = 0 to 2 do
            M.propose (node i) k (Printf.sprintf "k%d-v%d" k i)
          done
        done;
        let all_decided () =
          List.for_all
            (fun k -> List.for_all (fun i -> M.decision (node i) k <> None) [ 0; 1; 2 ])
            [ 0; 1; 2; 3 ]
        in
        let ok = Engine.run_until eng ~until:10_000_000 ~pred:all_decided () in
        Alcotest.(check bool) "all decided" true ok;
        (* agreement per instance, and decisions may differ across instances *)
        List.iter
          (fun k ->
            let v0 = Option.get (M.decision (node 0) k) in
            List.iter
              (fun i ->
                Alcotest.(check (option string))
                  "agree" (Some v0)
                  (M.decision (node i) k))
              [ 1; 2 ])
          [ 0; 1; 2; 3 ]);
    test (name ^ " multi: logged_proposal_instances lists proposals") (fun () ->
        (* the undecided ones at or above the cursor: alone, node 0
           decides nothing *)
        let eng, node = multi_rig () in
        Engine.crash eng 1;
        Engine.crash eng 2;
        M.propose (node 0) 0 "a";
        M.propose (node 0) 2 "c";
        Engine.run eng ~until:1_000;
        let logged = Alcotest.(list (pair int string)) in
        Alcotest.check logged "instances" [ (0, "a"); (2, "c") ]
          (M.logged_proposal_instances (node 0));
        M.seek (node 0) 1;
        Alcotest.check logged "below the cursor" [ (2, "c") ]
          (M.logged_proposal_instances (node 0)));
    test (name ^ " multi: truncate_below raises the floor and drops state") (fun () ->
        let eng, node = multi_rig () in
        for k = 0 to 2 do
          for i = 0 to 2 do
            M.propose (node i) k "v"
          done
        done;
        let decided () =
          List.for_all (fun k -> M.decision (node 0) k <> None) [ 0; 1; 2 ]
        in
        Alcotest.(check bool) "decided" true
          (Engine.run_until eng ~until:10_000_000 ~pred:decided ());
        M.truncate_below (node 0) 2;
        Alcotest.(check int) "floor" 2 (M.floor (node 0));
        Alcotest.(check (option string)) "old gone" None (M.decision (node 0) 0);
        Alcotest.(check bool) "recent kept" true (M.decision (node 0) 2 <> None);
        (* proposals below the floor are ignored *)
        M.propose (node 0) 0 "zombie";
        Alcotest.(check (option string)) "ignored" None (M.proposal (node 0) 0));
    test (name ^ " multi: truncated peer reports lag to the asker") (fun () ->
        let eng, node = multi_rig ~seed:3 () in
        (* decide instance 0 while node 2 is down *)
        Engine.crash eng 2;
        for i = 0 to 1 do
          M.propose (node i) 0 "v"
        done;
        let decided () = M.decision (node 0) 0 <> None && M.decision (node 1) 0 <> None in
        Alcotest.(check bool) "decided" true
          (Engine.run_until eng ~until:10_000_000 ~pred:decided ());
        M.truncate_below (node 0) 1;
        M.truncate_below (node 1) 1;
        (* let the leader's Decide, still in flight, reach node 2 while it
           is down: the recovered node must not hold the decision *)
        Engine.run eng ~until:(Engine.now eng + 50_000);
        Engine.recover eng 2;
        Engine.at eng (Engine.now eng + 100) (fun () -> M.propose (node 2) 0 "late");
        let lagged () = M.behind (node 2) in
        Alcotest.(check bool) "lag reported" true
          (Engine.run_until eng ~until:20_000_000 ~pred:lagged ());
        (* the hint is the peers' floor: a cursor there is behind no more *)
        M.seek (node 2) 1;
        Alcotest.(check bool) "floor carried" false (M.behind (node 2)));
    test (name ^ " multi: an instance jumped past stops probing") (fun () ->
        (* Node 2 logs a proposal for instance 0 and crashes; the others
           decide and truncate it. Recovered, node 2 re-proposes it, hears
           [Truncated] and jumps its cursor past it (what adopting a state
           transfer does). From then on the instance must fall silent:
           every probe of it costs its peers a State. *)
        let probes = ref 0 in
        let eng, node =
          multi_rig ~seed:9 ~on_behind:(fun _ ~src -> if src = 2 then incr probes) ()
        in
        M.propose (node 2) 0 "late";
        Engine.crash eng 2;
        for k = 0 to 2 do
          for i = 0 to 1 do
            M.propose (node i) k "v"
          done
        done;
        let decided () =
          List.for_all
            (fun k -> M.decision (node 0) k <> None && M.decision (node 1) k <> None)
            [ 0; 1; 2 ]
        in
        Alcotest.(check bool) "decided" true
          (Engine.run_until eng ~until:10_000_000 ~pred:decided ());
        M.truncate_below (node 0) 3;
        M.truncate_below (node 1) 3;
        (* the decisions' announcements to node 2 are lost while it is down *)
        Engine.run eng ~until:(Engine.now eng + 100_000);
        Engine.recover eng 2;
        M.propose (node 2) 0 "late";
        Alcotest.(check bool) "lag reported" true
          (Engine.run_until eng ~until:(Engine.now eng + 1_000_000)
             ~pred:(fun () -> M.behind (node 2)) ());
        M.seek (node 2) 3;
        (* let the probes already in flight land, then listen for two
           seconds: a retry period of ~10 ms would send ~200 more *)
        Engine.run eng ~until:(Engine.now eng + 100_000);
        probes := 0;
        Engine.run eng ~until:(Engine.now eng + 2_000_000);
        Alcotest.(check int) "probes after the jump" 0 !probes);
    test (name ^ " multi: decisions persist across recovery") (fun () ->
        let eng, node = multi_rig ~seed:5 () in
        for i = 0 to 2 do
          M.propose (node i) 0 "v"
        done;
        let decided () = M.decision (node 1) 0 <> None in
        Alcotest.(check bool) "decided" true
          (Engine.run_until eng ~until:10_000_000 ~pred:decided ());
        let v = M.decision (node 1) 0 in
        Engine.crash eng 1;
        Engine.recover eng 1;
        Alcotest.(check (option string)) "persisted" v (M.decision (node 1) 0));
    ]
end

module Multi_paxos = Multi_suite (Abcast_consensus.Paxos)

(* The leader crashes in the middle of its term: instances above the one
   its phase 1 ran in are accepted somewhere but not decided. The next
   leader opens its own term below them, so they reach it straight in
   phase 2 unless its promises listed them. It must keep every value a
   majority had accepted, and all processes, the old leader included,
   must decide alike. *)
let paxos_term_failover seed =
  let module Paxos = Abcast_consensus.Paxos in
  let module M = Multi_paxos.M in
  let eng, node = Multi_paxos.multi_rig ~seed () in
  let insts = [ 1; 2; 3; 4 ] in
  let run_to what pred =
    if not (Engine.run_until eng ~until:(Engine.now eng + 20_000_000) ~pred ())
    then Alcotest.failf "seed %d: %s" seed what
  in
  (* node 0 opens its term at instance 0 *)
  M.propose (node 0) 0 "a0";
  run_to "instance 0 decided" (fun () -> M.decision (node 0) 0 <> None);
  List.iter (fun j -> M.propose (node 0) j (Printf.sprintf "a%d" j)) insts;
  let accepted i j = Paxos.accepted (Engine.storage eng i) ~instance:j in
  (* a follower has accepted (and, at n = 3, decided) an instance whose
     Accepted the leader still waits for *)
  run_to "an accept reached a follower" (fun () ->
      List.exists
        (fun i ->
          List.exists
            (fun j -> accepted i j <> None && M.decision (node 0) j = None)
            [ 2; 3; 4 ])
        [ 1; 2 ]);
  Engine.crash eng 0;
  let chosen =
    List.map
      (fun j ->
        let acc = List.filter_map (fun i -> accepted i j) [ 0; 1; 2 ] in
        ( j,
          List.find_map
            (fun (b, v) ->
              if List.length (List.filter (( = ) (b, v)) acc) >= 2 then Some v
              else None)
            acc ))
      insts
  in
  let propose_all j =
    List.iter (fun i -> M.propose (node i) j (Printf.sprintf "n%d-%d" i j)) [ 1; 2 ]
  in
  (* node 1 leads now: its term opens at instance 1 *)
  propose_all 1;
  run_to "new term opened" (fun () -> M.decision (node 1) 1 <> None);
  List.iter propose_all [ 2; 3; 4 ];
  let decided_at i () = List.for_all (fun j -> M.decision (node i) j <> None) insts in
  run_to "survivors decided" (fun () -> decided_at 1 () && decided_at 2 ());
  Engine.recover eng 0;
  List.iter (fun j -> M.propose (node 0) j "a-again") insts;
  run_to "old leader decided" (decided_at 0);
  List.iter
    (fun (j, chosen) ->
      let d = M.decision (node 0) j in
      List.iter
        (fun i ->
          Alcotest.(check (option string))
            (Printf.sprintf "seed %d: agreement at %d" seed j)
            d (M.decision (node i) j))
        [ 1; 2 ];
      Option.iter
        (fun v ->
          Alcotest.(check (option string))
            (Printf.sprintf "seed %d: chosen value kept at %d" seed j)
            (Some v) d)
        chosen)
    chosen
module Multi_coord = Multi_suite (Abcast_consensus.Coord)

(* Decide fan-out over a multi-instance run: only the node that completes
   an instance announces it (Paxos only above three nodes: at n <= 3 its
   followers decide on accepting), nobody echoes, and a decided leader
   ignores the late phase-2 answers its Accept or Decide covered.
   [drop ~src ~dst k c] loses consensus frame [c] of instance [k] on that
   link. Every node proposes each instance (as each proposes its
   Unordered backlog in the stack), the followers a random 0–1 ms after
   the leader; the next instance starts once all have decided. Returns
   the Decide frames that crossed a link and, per instance, when it was
   decided everywhere. *)
module Fanout (C : Intf.S) = struct
  module M = Abcast_consensus.Multi.Make (C)

  let run ~is_decide ?(drop = fun ~src:_ ~dst:_ _ _ -> false) ?(n = 3)
      ?(seed = 1) ~instances () =
    (* no heavy-tailed delays: a Decide slower than the probe retry
       period is indistinguishable from a lost one *)
    let net = Net.create ~heavy_tail:0.0 () in
    let eng = Engine.create ~seed ~n ~net () in
    let nodes = Array.make n None in
    let decides = ref 0 in
    for i = 0 to n - 1 do
      Engine.set_behavior eng i (fun io ->
          let m =
            M.create io ~leader:(fun () -> 0) ~on_ready:ignore
              ~on_behind:(fun ~src:_ -> ())
          in
          nodes.(i) <- Some m;
          fun ~src msg ->
            match msg with
            | M.Inst (k, c) when src <> i && drop ~src ~dst:i k c -> ()
            | M.Inst (_, c) when src <> i && is_decide c ->
              incr decides;
              M.handle m ~src msg
            | _ -> M.handle m ~src msg)
    done;
    Engine.start_all eng;
    let node i = match nodes.(i) with Some m -> m | None -> assert false in
    let rng = Rng.create (seed + 77) in
    let took =
      List.init instances (fun k ->
          let t0 = Engine.now eng in
          M.propose (node 0) k (Printf.sprintf "k%d" k);
          for i = 1 to n - 1 do
            Engine.after eng (Rng.int rng 1_000) (fun () ->
                M.propose (node i) k (Printf.sprintf "k%d-%d" k i))
          done;
          let decided () =
            List.for_all (fun i -> M.decision (node i) k <> None) (List.init n Fun.id)
          in
          if not (Engine.run_until eng ~until:(t0 + 10_000_000) ~pred:decided ())
          then Alcotest.failf "instance %d undecided" k;
          Engine.now eng - t0)
    in
    (* let late probes and answers land before counting *)
    Engine.run eng ~until:(Engine.now eng + 100_000);
    (!decides, took)
end

module Fanout_paxos = Fanout (Abcast_consensus.Paxos)
module Fanout_coord = Fanout (Abcast_consensus.Coord)

let paxos_decide = function Abcast_consensus.Paxos.Decide _ -> true | _ -> false
let paxos_accept = function Abcast_consensus.Paxos.Accept _ -> true | _ -> false
let coord_decide = function Abcast_consensus.Coord.Decide _ -> true | _ -> false

let fanout_tests =
  let count_decides ~seeds ~n ~per_instance run =
    List.iter
      (fun seed ->
        let decides, _ = run ~n ~seed in
        Alcotest.(check int)
          (Printf.sprintf "seed %d, n = %d: Decide frames for 20 instances" seed n)
          (per_instance * 20) decides)
      seeds
  in
  (* The frame of instance 5 that would tell node 2 the decision is lost:
     the leader's Decide in Coord, its Accept in Paxos (at n = 3 no
     Decide follows it). Node 2 learns the decision when its next probe
     reaches a decided peer — its first [Query] in Paxos (one to 1.5
     retry periods after it proposes, which is up to 1 ms after the
     leader), its next round's [Estimate] in Coord (one round timeout
     plus a quarter of jitter). Every decided peer answers it. *)
  let healed name run ~lost ~at_least ~bound =
    test (name ^ ": a Decide lost on one link is learned through the probe")
      (fun () ->
        let drop ~src ~dst k c = src = 0 && dst = 2 && k = 5 && lost c in
        let decides, took = run ~drop in
        let t5 = List.nth took 5 in
        let normal = List.fold_left max 0 (List.filteri (fun k _ -> k <> 5) took) in
        if t5 <= normal then
          Alcotest.failf "instance 5 took %d us, no slower than the others" t5;
        if t5 > bound then
          Alcotest.failf "instance 5 healed after %d us (bound %d)" t5 bound;
        Alcotest.(check bool) "an answer replaced the lost frame" true
          (decides >= at_least))
  in
  (* two one-way delays at most, the lost frame's and the answer's *)
  let delays = 2 * 2_000 in
  [
    test "paxos: a failure-free run carries no Decide at n = 3, n-1 per instance at n = 5"
      (fun () ->
        let run ~n ~seed =
          Fanout_paxos.run ~is_decide:paxos_decide ~n ~seed ~instances:20 ()
        in
        count_decides ~seeds:[ 1; 2; 3; 4; 5 ] ~n:3 ~per_instance:0 run;
        count_decides ~seeds:[ 1; 2; 3 ] ~n:5 ~per_instance:4 run);
    test "coord: a failure-free run carries n-1 Decides per instance" (fun () ->
        count_decides ~seeds:[ 1; 2; 3; 4; 5 ] ~n:3 ~per_instance:2
          (fun ~n ~seed ->
            Fanout_coord.run ~is_decide:coord_decide ~n ~seed ~instances:20 ()));
    healed "paxos"
      (fun ~drop ->
        Fanout_paxos.run ~is_decide:paxos_decide ~drop ~instances:20 ())
      ~lost:paxos_accept ~at_least:1
      ~bound:((Abcast_consensus.Paxos.retry_period * 7 / 4) + delays);
    healed "coord"
      (fun ~drop ->
        Fanout_coord.run ~is_decide:coord_decide ~drop ~instances:20 ())
      ~lost:coord_decide ~at_least:(2 * 20)
      ~bound:((Abcast_consensus.Coord.round_timeout * 5 / 4) + delays);
  ]

(* The leader's Accept reaches node 1 only (the link to node 2 loses it),
   and the leader crashes in the very step that sent it, before it could
   handle its own copy. Node 1 decides on accepting, then crashes. The
   leader recovers and node 2 runs a ballot that only the leader and node
   2 can promise: the leader's acceptance, logged before its Accept left,
   must carry node 1's decision into it. *)
let paxos_accept_then_crash seed =
  let module Paxos = Abcast_consensus.Paxos in
  let net = Net.create ~heavy_tail:0.0 () in
  let eng = Engine.create ~seed ~n:3 ~net () in
  let leader = ref 0 in
  let nodes = Array.make 3 None in
  let accept_sent = ref false in
  for i = 0 to 2 do
    Engine.set_behavior eng i (fun io ->
        let io =
          if i <> 0 then io
          else
            {
              io with
              multisend =
                (fun m ->
                  if paxos_accept m then accept_sent := true;
                  io.multisend m);
            }
        in
        let c =
          Paxos.create io ~node:(Paxos.node io) ~instance:0
            ~leader:(fun () -> !leader)
            ~on_decide:ignore
        in
        nodes.(i) <- Some c;
        fun ~src msg ->
          if not (i = 2 && src = 0 && paxos_accept msg) then begin
            Paxos.handle c ~src msg;
            if i = 0 && !accept_sent then begin
              accept_sent := false;
              Engine.crash eng 0;
              leader := 2;
              Engine.after eng 100 (fun () -> Engine.recover eng 0)
            end;
            if i = 1 && Paxos.decision c <> None then Engine.crash eng 1
          end)
  done;
  Engine.start_all eng;
  let node i = match nodes.(i) with Some c -> c | None -> assert false in
  Paxos.propose (node 0) "v0";
  Paxos.propose (node 2) "w";
  let decided1 () =
    Storage.read (Engine.storage eng 1) (Intf.Keys.decision 0)
  in
  if
    not
      (Engine.run_until eng ~until:10_000_000
         ~pred:(fun () -> decided1 () <> None && Paxos.decision (node 2) <> None)
         ())
  then Alcotest.failf "seed %d: nodes 1 and 2 did not both decide" seed;
  Alcotest.(check (option string))
    (Printf.sprintf "seed %d: node 1 decided on accepting" seed)
    (Some "v0") (decided1 ());
  Alcotest.(check (option string))
    (Printf.sprintf "seed %d: node 2's ballot keeps node 1's decision" seed)
    (decided1 ()) (Paxos.decision (node 2))

let multi_tests =
  Multi_paxos.tests "paxos" @ Multi_coord.tests "coord"
  @ [
      test "paxos multi: a new leader keeps the crashed term's values (20 seeds)"
        (fun () -> List.iter paxos_term_failover (List.init 20 (fun i -> i + 1)));
      test "paxos: a follower's decision survives the leader's crash after its Accept"
        (fun () -> List.iter paxos_accept_then_crash (List.init 10 (fun i -> i + 1)));
      test "paxos multi: a node does not answer its own probe below its floor"
        (fun () ->
          let behind = ref [] in
          let eng, node =
            Multi_paxos.multi_rig
              ~on_behind:(fun i ~src -> behind := (i, src) :: !behind)
              ()
          in
          List.iter (fun i -> Multi_paxos.M.propose (node i) 0 "v") [ 0; 1; 2 ];
          Alcotest.(check bool) "decided" true
            (Engine.run_until eng ~until:10_000_000
               ~pred:(fun () -> Multi_paxos.M.decision (node 0) 0 <> None)
               ());
          Multi_paxos.M.truncate_below (node 0) 1;
          let probe = Multi_paxos.M.Inst (0, Abcast_consensus.Paxos.Query) in
          Multi_paxos.M.handle (node 0) ~src:0 probe;
          Multi_paxos.M.handle (node 0) ~src:1 probe;
          Alcotest.(check (list (pair int int))) "only the peer's probe" [ (0, 1) ]
            !behind);
    ]

let keys_tests =
  [
    test "keys: instance/field roundtrip" (fun () ->
        let key = Intf.Keys.proposal 1234 in
        Alcotest.(check (option int)) "instance" (Some 1234)
          (Intf.Keys.instance_of_key key);
        Alcotest.(check (option string)) "field" (Some "proposal")
          (Intf.Keys.field_of_key key));
    test "keys: non-consensus keys are rejected" (fun () ->
        Alcotest.(check (option int)) "other" None
          (Intf.Keys.instance_of_key Stable.checkpoint_key));
  ]

let keys_props =
  [
    QCheck.Test.make ~name:"keys: roundtrip for any instance/field" ~count:200
      QCheck.(pair (int_range 0 999_999_999) (oneofl [ "proposal"; "decision"; "paxos.acc" ]))
      (fun (k, field) ->
        let key = Intf.Keys.inst k field in
        Intf.Keys.instance_of_key key = Some k
        && Intf.Keys.field_of_key key = Some field);
  ]

(* --- E9 adversarial schedules over the pipelined sequencer --------- *)

(* The full-stack safety net of experiment E9, re-run with the consensus
   pipeline open (window > 1): randomized crash/recovery plans, every
   property and lemma checked by [Suite_faults.episode]. A decided-but-
   uncommitted instance buffered out of order must never let a later
   batch deliver early — Checks.all's total-order comparison across the
   good processes is exactly that assertion. *)
let pipelined_adversarial_tests =
  let module Factory = Abcast_core.Factory in
  [
    slow_test "E9 adversarial schedules with window=4 pipeline" (fun () ->
        List.iter
          (fun seed ->
            ignore
              (Suite_faults.episode
                 ~stack:(Factory.make
                           { Protocol.paper_alternative with window = 4 })
                 ~seed ~n:5 ~n_bad:2 ()))
          [ 1101; 1102; 1103 ]);
    slow_test "E9 adversarial schedules with window=8 + ring" (fun () ->
        List.iter
          (fun seed ->
            ignore
              (Suite_faults.episode
                 ~stack:
                   (Factory.make
                      {
                        Protocol.paper_alternative with
                        window = 8;
                        dissemination = `Ring;
                      })
                 ~seed ~n:5 ~n_bad:2 ()))
          [ 2201; 2202; 2203 ]);
    slow_test "E9 partition churn over the throughput preset" (fun () ->
        ignore
          (Suite_faults.episode ~partition_churn:true
             ~stack:(Factory.make Protocol.throughput)
             ~seed:3301 ~n:5 ~n_bad:1 ()));
  ]

let suite =
  ( "consensus",
    Paxos_rig.tests "paxos" @ Coord_rig.tests "coord"
    @ Paxos_adv.tests "paxos" @ Coord_adv.tests "coord" @ multi_tests
    @ fanout_tests @ pipelined_adversarial_tests @ keys_tests
    @ List.map QCheck_alcotest.to_alcotest
        (keys_props
        @ [
            random_schedule_prop (module Abcast_consensus.Paxos)
              "paxos: agreement under random bounce";
            random_schedule_prop (module Abcast_consensus.Coord)
              "coord: agreement under random bounce";
          ]) )
