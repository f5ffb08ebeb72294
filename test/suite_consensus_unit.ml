(* White-box, message-level unit tests of the consensus state machines.

   A synthetic Engine.io captures outgoing messages and timers instead of
   scheduling them, so each protocol step can be driven and inspected
   deterministically — no engine, no clock. *)

open Helpers
module Engine = Abcast_sim.Engine
module Paxos = Abcast_consensus.Paxos
module Coord = Abcast_consensus.Coord

type 'm probe = {
  io : 'm Engine.io;
  sent : (int * 'm) list ref; (* reversed *)
  timers : (int * Engine.Timer.t) Queue.t;
  store : Storage.t;
}

let probe ?(self = 0) ?(n = 3) () =
  let sent = ref [] in
  let timers = Queue.create () in
  let store = Storage.create ~metrics:(Metrics.create ()) ~node:self () in
  let io : _ Engine.io =
    {
      self;
      n;
      group = 0;
      incarnation = 0;
      now = (fun () -> 0);
      send = (fun dst m -> sent := (dst, m) :: !sent);
      multisend =
        (fun m ->
          for dst = 0 to n - 1 do
            sent := (dst, m) :: !sent
          done);
      after =
        (fun delay thunk ->
          let timer = Engine.Timer.make thunk in
          Queue.push (delay, timer) timers;
          timer);
      store;
      rng = Rng.create 1;
      metrics = Metrics.create ();
      flight = Abcast_sim.Flight.disabled;
      alarm = ignore;
    }
  in
  { io; sent; timers; store }

let take_sent p =
  let out = List.rev !(p.sent) in
  p.sent := [];
  out

(* Fire the oldest timer still pending (cancelled ones are skipped). *)
let rec fire_next_timer p =
  match Queue.take_opt p.timers with
  | Some (_, timer) -> if not (Engine.Timer.fire timer) then fire_next_timer p
  | None -> Alcotest.fail "no timer armed"

let live_timers p =
  Queue.fold
    (fun n (_, timer) -> if Engine.Timer.pending timer then n + 1 else n)
    0 p.timers

let self_leader () = 0

(* ---------------- Paxos ---------------- *)

let sent_prepares msgs =
  List.filter_map
    (fun (dst, m) -> match m with Paxos.Prepare { b } -> Some (dst, b) | _ -> None)
    msgs

let paxos_make ?(self = 0) ?n () =
  let p = probe ~self ?n () in
  let decided = ref None in
  let c =
    Paxos.create p.io ~node:(Paxos.node p.io) ~instance:0 ~leader:self_leader ~on_decide:(fun v ->
        decided := Some v)
  in
  (p, c, decided)

let paxos_tests =
  [
    test "paxos: propose logs the value and arms a retry timer" (fun () ->
        let p, c, _ = paxos_make () in
        Paxos.propose c "v";
        Alcotest.(check (option string)) "logged" (Some "v")
          (Storage.read p.store (Abcast_consensus.Consensus_intf.Keys.proposal 0));
        Alcotest.(check bool) "timer armed" true (not (Queue.is_empty p.timers)));
    test "paxos: the leader's propose starts phase 1 with ballot r*n+self"
      (fun () ->
        let p, c, _ = paxos_make () in
        Paxos.propose c "v";
        let prepares = sent_prepares (take_sent p) in
        Alcotest.(check int) "to everyone" 3 (List.length prepares);
        List.iter
          (fun (_, b) ->
            Alcotest.(check bool) "ballot = r*3+0, r>=1" true (b mod 3 = 0 && b >= 3))
          prepares;
        (* a lost Prepare is retried with a higher ballot *)
        let first = snd (List.hd prepares) in
        fire_next_timer p;
        let retries = sent_prepares (take_sent p) in
        Alcotest.(check int) "retried to everyone" 3 (List.length retries);
        List.iter
          (fun (_, b) ->
            Alcotest.(check bool) "higher ballot r*3+0" true
              (b mod 3 = 0 && b > first))
          retries);
    test "paxos: a non-leader queries instead of competing" (fun () ->
        let p, c, _ = paxos_make ~self:1 () in
        (* leader oracle says 0; self is 1 *)
        Paxos.propose c "v";
        fire_next_timer p;
        let sent = take_sent p in
        Alcotest.(check bool) "no prepares" true (sent_prepares sent = []);
        Alcotest.(check bool) "queries instead" true
          (List.exists (fun (_, m) -> m = Paxos.Query) sent));
    test "paxos: acceptor promises higher ballots, rejects lower" (fun () ->
        let p, c, _ = paxos_make ~self:1 () in
        Paxos.handle c ~src:0 (Paxos.Prepare { b = 6 });
        (match take_sent p with
        | [ (0, Paxos.Promise { b = 6; accepted = None; above = [] }) ] -> ()
        | _ -> Alcotest.fail "expected a promise to 0");
        Paxos.handle c ~src:2 (Paxos.Prepare { b = 5 });
        match take_sent p with
        | [ (2, Paxos.Reject { b = 6 }) ] -> ()
        | _ -> Alcotest.fail "expected a reject carrying the promise");
    test "paxos: accept updates durable state and acks" (fun () ->
        let p, c, _ = paxos_make ~self:1 () in
        Paxos.handle c ~src:0 (Paxos.Accept { b = 6; v = "x" });
        (match take_sent p with
        | [ (0, Paxos.Accepted { b = 6 }) ] -> ()
        | _ -> Alcotest.fail "expected an ack");
        (* the acceptor state must have been logged before the ack *)
        Alcotest.(check bool) "durable" true
          (Storage.mem p.store
             (Abcast_consensus.Consensus_intf.Keys.inst 0 "paxos.acc")));
    test "paxos: proposer adopts the highest accepted value from promises"
      (fun () ->
        let p, c, _ = paxos_make () in
        Paxos.propose c "mine";
        let b =
          match sent_prepares (take_sent p) with
          | (_, b) :: _ -> b
          | [] -> Alcotest.fail "no prepare"
        in
        Paxos.handle c ~src:1 (Paxos.Promise { b; accepted = Some (2, "old-low"); above = [] });
        Paxos.handle c ~src:2 (Paxos.Promise { b; accepted = Some (4, "old-high"); above = [] });
        let accepts =
          List.filter_map
            (fun (_, m) ->
              match m with Paxos.Accept { v; _ } -> Some v | _ -> None)
            (take_sent p)
        in
        Alcotest.(check bool) "phase 2 started" true (accepts <> []);
        List.iter (Alcotest.(check string) "adopted highest" "old-high") accepts);
    test "paxos: free choice when no promise carries a value" (fun () ->
        let p, c, _ = paxos_make () in
        Paxos.propose c "mine";
        let b =
          match sent_prepares (take_sent p) with
          | (_, b) :: _ -> b
          | [] -> Alcotest.fail "no prepare"
        in
        Paxos.handle c ~src:1 (Paxos.Promise { b; accepted = None; above = [] });
        Paxos.handle c ~src:2 (Paxos.Promise { b; accepted = None; above = [] });
        let accepts =
          List.filter_map
            (fun (_, m) ->
              match m with Paxos.Accept { v; _ } -> Some v | _ -> None)
            (take_sent p)
        in
        Alcotest.(check bool) "phase 2 started" true (accepts <> []);
        List.iter (Alcotest.(check string) "own value" "mine") accepts);
    (* Above three nodes two acceptances are no majority: the follower
       waits, and the leader that completes the instance announces it. *)
    test "paxos: majority of accepted acks decides, logs, announces" (fun () ->
        let p, c, decided = paxos_make ~n:5 () in
        Paxos.propose c "mine";
        let b =
          match sent_prepares (take_sent p) with
          | (_, b) :: _ -> b
          | [] -> Alcotest.fail "no prepare"
        in
        Paxos.handle c ~src:0 (Paxos.Promise { b; accepted = None; above = [] });
        Paxos.handle c ~src:1 (Paxos.Promise { b; accepted = None; above = [] });
        Paxos.handle c ~src:2 (Paxos.Promise { b; accepted = None; above = [] });
        ignore (take_sent p);
        Paxos.handle c ~src:1 (Paxos.Accepted { b });
        Alcotest.(check (option string)) "two of five: undecided" None !decided;
        Paxos.handle c ~src:2 (Paxos.Accepted { b });
        Alcotest.(check (option string)) "decided" (Some "mine") !decided;
        Alcotest.(check (option string)) "logged" (Some "mine")
          (Storage.read p.store (Abcast_consensus.Consensus_intf.Keys.decision 0));
        Alcotest.(check int) "announced to all five" 5
          (List.length
             (List.filter
                (fun (_, m) -> match m with Paxos.Decide _ -> true | _ -> false)
                (take_sent p)));
        let q, d, learned = paxos_make ~self:1 ~n:5 () in
        Paxos.handle d ~src:0 (Paxos.Accept { b = 5; v = "x" });
        Alcotest.(check (option string)) "a follower of five waits" None !learned;
        (match take_sent q with
        | [ (0, Paxos.Accepted { b = 5 }) ] -> ()
        | _ -> Alcotest.fail "expected an ack"));
    test "paxos: at n = 3 the leader accepts before its Accept leaves and sends no Decide"
      (fun () ->
        let p, c, decided = paxos_make () in
        Paxos.propose c "mine";
        let b =
          match sent_prepares (take_sent p) with
          | (_, b) :: _ -> b
          | [] -> Alcotest.fail "no prepare"
        in
        Paxos.handle c ~src:0 (Paxos.Promise { b; accepted = None; above = [] });
        Paxos.handle c ~src:1 (Paxos.Promise { b; accepted = None; above = [] });
        Alcotest.(check (option (pair int string))) "accepted here first"
          (Some (b, "mine")) (Paxos.accepted p.store ~instance:0);
        let accepts =
          List.filter (fun (_, m) -> match m with Paxos.Accept _ -> true | _ -> false)
            (take_sent p)
        in
        Alcotest.(check int) "one Accept to each node" 3 (List.length accepts);
        (* the self copy of the multisend is ignored *)
        Paxos.handle c ~src:0 (Paxos.Accept { b; v = "mine" });
        Alcotest.(check int) "own copy unanswered" 0 (List.length (take_sent p));
        Alcotest.(check (option string)) "one acceptance is no majority" None
          !decided;
        Paxos.handle c ~src:2 (Paxos.Accepted { b });
        Alcotest.(check (option string)) "decided" (Some "mine") !decided;
        Alcotest.(check int) "no Decide" 0 (List.length (take_sent p)));
    test "paxos: at n = 3 a follower decides on accepting, after its Accepted"
      (fun () ->
        let p = probe ~self:1 () in
        let acked_first = ref false in
        let c =
          Paxos.create p.io ~node:(Paxos.node p.io) ~instance:0
            ~leader:self_leader ~on_decide:(fun _ ->
              acked_first := List.mem (0, Paxos.Accepted { b = 6 }) !(p.sent))
        in
        Paxos.handle c ~src:0 (Paxos.Accept { b = 6; v = "x" });
        Alcotest.(check (option string)) "decided" (Some "x") (Paxos.decision c);
        Alcotest.(check (option string)) "logged" (Some "x")
          (Storage.read p.store (Abcast_consensus.Consensus_intf.Keys.decision 0));
        Alcotest.(check bool) "Accepted queued before the decision" true
          !acked_first;
        Alcotest.(check int) "no echo" 1 (List.length (take_sent p));
        (* our Accepted may be lost: the leader's next ballot is answered *)
        Paxos.handle c ~src:0 (Paxos.Prepare { b = 9 });
        match take_sent p with
        | [ (0, Paxos.Decide { v = "x" }) ] -> ()
        | _ -> Alcotest.fail "expected a Decide to the leader");
    test "paxos: a proposer whose own promise blocks its ballot sends no Accept"
      (fun () ->
        let p, c, _ = paxos_make () in
        Paxos.propose c "mine";
        let b =
          match sent_prepares (take_sent p) with
          | (_, b) :: _ -> b
          | [] -> Alcotest.fail "no prepare"
        in
        (* node 1's higher Prepare reaches us before the promises do *)
        Paxos.handle c ~src:1 (Paxos.Prepare { b = b + 1 });
        ignore (take_sent p);
        Paxos.handle c ~src:1 (Paxos.Promise { b; accepted = None; above = [] });
        Paxos.handle c ~src:2 (Paxos.Promise { b; accepted = None; above = [] });
        Alcotest.(check int) "nothing sent" 0 (List.length (take_sent p));
        Alcotest.(check (option (pair int string))) "nothing accepted" None
          (Paxos.accepted p.store ~instance:0);
        fire_next_timer p;
        List.iter
          (fun (_, b') ->
            Alcotest.(check bool) "the retry goes above the blocker" true
              (b' > b + 1))
          (sent_prepares (take_sent p)));
    test "paxos: a follower whose promise blocks the Accept learns from its Reject's answer"
      (fun () ->
        let q, f, learned = paxos_make ~self:2 () in
        Paxos.handle f ~src:1 (Paxos.Prepare { b = 7 });
        ignore (take_sent q);
        Paxos.handle f ~src:0 (Paxos.Accept { b = 6; v = "mine" });
        let reject =
          match take_sent q with
          | [ (0, (Paxos.Reject { b = 7 } as r)) ] -> r
          | _ -> Alcotest.fail "expected a Reject carrying 7"
        in
        Alcotest.(check (option string)) "blocked: undecided" None !learned;
        (* the leader decided with node 1's Accepted *)
        let p, c, decided = paxos_make () in
        Paxos.propose c "mine";
        let b =
          match sent_prepares (take_sent p) with
          | (_, b) :: _ -> b
          | [] -> Alcotest.fail "no prepare"
        in
        Paxos.handle c ~src:0 (Paxos.Promise { b; accepted = None; above = [] });
        Paxos.handle c ~src:1 (Paxos.Promise { b; accepted = None; above = [] });
        Paxos.handle c ~src:1 (Paxos.Accepted { b });
        Alcotest.(check (option string)) "leader decided" (Some "mine") !decided;
        ignore (take_sent p);
        Paxos.handle c ~src:2 reject;
        match take_sent p with
        | [ (2, (Paxos.Decide { v = "mine" } as d)) ] ->
          Paxos.handle f ~src:0 d;
          Alcotest.(check (option string)) "learned" (Some "mine") !learned
        | _ -> Alcotest.fail "expected a Decide answering the Reject");
    test "paxos: decided instance answers everything with Decide" (fun () ->
        let p, c, _ = paxos_make ~self:1 () in
        Paxos.handle c ~src:0 (Paxos.Decide { v = "done" });
        ignore (take_sent p);
        Paxos.handle c ~src:2 (Paxos.Prepare { b = 99 });
        (match take_sent p with
        | (2, Paxos.Decide { v = "done" }) :: _ -> ()
        | _ -> Alcotest.fail "expected a Decide reply");
        Paxos.handle c ~src:2 Paxos.Query;
        match take_sent p with
        | (2, Paxos.Decide { v = "done" }) :: _ -> ()
        | _ -> Alcotest.fail "expected a Decide reply to query");
    test "paxos: a learned decision is not echoed" (fun () ->
        let p, c, decided = paxos_make ~self:1 () in
        Paxos.handle c ~src:0 (Paxos.Decide { v = "done" });
        Alcotest.(check (option string)) "decided" (Some "done") !decided;
        Alcotest.(check int) "nothing sent" 0 (List.length (take_sent p));
        (* the node that told us knows: nothing goes back to it *)
        Paxos.handle c ~src:0 (Paxos.Accept { b = 3; v = "done" });
        Alcotest.(check int) "no reply to the teller" 0
          (List.length (take_sent p)));
    test "paxos: decide cancels the retry tick, leader or learner" (fun () ->
        let p, c, decided = paxos_make () in
        Paxos.propose c "mine";
        Alcotest.(check int) "a retry tick is live" 1 (live_timers p);
        let b =
          match sent_prepares (take_sent p) with
          | (_, b) :: _ -> b
          | [] -> Alcotest.fail "no prepare"
        in
        Paxos.handle c ~src:0 (Paxos.Promise { b; accepted = None; above = [] });
        Paxos.handle c ~src:1 (Paxos.Promise { b; accepted = None; above = [] });
        Paxos.handle c ~src:0 (Paxos.Accepted { b });
        Paxos.handle c ~src:1 (Paxos.Accepted { b });
        Alcotest.(check (option string)) "decided" (Some "mine") !decided;
        Alcotest.(check int) "leader: no live timer" 0 (live_timers p);
        let q, d, _ = paxos_make ~self:1 () in
        Paxos.propose d "theirs";
        Alcotest.(check int) "learner: a retry tick is live" 1 (live_timers q);
        Paxos.handle d ~src:0 (Paxos.Decide { v = "mine" });
        Alcotest.(check int) "learner: no live timer" 0 (live_timers q);
        (* n = 1: the term instance 0 opens lets instance 1 decide inside
           the tick its propose runs, which must not re-arm itself *)
        let s = probe ~n:1 () in
        let node = Paxos.node s.io in
        let decided = ref [] in
        let inst k =
          Paxos.create s.io ~node ~instance:k ~leader:self_leader
            ~on_decide:(fun v -> decided := (k, v) :: !decided)
        in
        let c0 = inst 0 in
        Paxos.propose c0 "a";
        (match sent_prepares (take_sent s) with
        | [ (0, b) ] ->
          Paxos.handle c0 ~src:0
            (Paxos.Promise { b; accepted = None; above = [] })
        | _ -> Alcotest.fail "expected one prepare");
        Alcotest.(check int) "n = 1, phase 1: no live timer" 0 (live_timers s);
        Paxos.propose (inst 1) "b";
        Alcotest.(check (list (pair int string))) "n = 1: both decided"
          [ (1, "b"); (0, "a") ] !decided;
        Alcotest.(check int) "n = 1, held term: no live timer" 0
          (live_timers s));
    test "paxos: a leader ignores an Accepted its own Decide covered" (fun () ->
        let p, c, _ = paxos_make () in
        Paxos.propose c "mine";
        let b =
          match sent_prepares (take_sent p) with
          | (_, b) :: _ -> b
          | [] -> Alcotest.fail "no prepare"
        in
        Paxos.handle c ~src:0 (Paxos.Promise { b; accepted = None; above = [] });
        Paxos.handle c ~src:1 (Paxos.Promise { b; accepted = None; above = [] });
        Paxos.handle c ~src:0 (Paxos.Accepted { b });
        Paxos.handle c ~src:1 (Paxos.Accepted { b });
        ignore (take_sent p);
        Paxos.handle c ~src:2 (Paxos.Accepted { b });
        Alcotest.(check int) "late Accepted unanswered" 0
          (List.length (take_sent p)));
    test "paxos: reject pushes the next ballot higher" (fun () ->
        let p, c, _ = paxos_make () in
        Paxos.propose c "v";
        ignore (take_sent p);
        Paxos.handle c ~src:1 (Paxos.Reject { b = 30 });
        fire_next_timer p;
        let prepares = sent_prepares (take_sent p) in
        Alcotest.(check bool) "retried" true (prepares <> []);
        List.iter
          (fun (_, b) -> Alcotest.(check bool) "above 30" true (b > 30))
          prepares);
    test "paxos: the node-wide promise survives a crash" (fun () ->
        let p = probe ~self:1 () in
        let inst nd k =
          Paxos.create p.io ~node:nd ~instance:k ~leader:self_leader
            ~on_decide:ignore
        in
        Paxos.handle (inst (Paxos.node p.io) 0) ~src:0 (Paxos.Prepare { b = 6 });
        ignore (take_sent p);
        (* the next incarnation rebuilds everything from storage; instance
           5 never saw ballot 6, yet rejects anything below it *)
        let c5 = inst (Paxos.node p.io) 5 in
        Paxos.handle c5 ~src:2 (Paxos.Prepare { b = 5 });
        Paxos.handle c5 ~src:2 (Paxos.Accept { b = 5; v = "x" });
        match take_sent p with
        | [ (2, Paxos.Reject { b = 6 }); (2, Paxos.Reject { b = 6 }) ] -> ()
        | _ -> Alcotest.fail "expected two rejects carrying ballot 6");
    test "paxos: one ballot is promised in every instance, once each" (fun () ->
        let p = probe ~self:1 () in
        let nd = Paxos.node p.io in
        let inst k =
          Paxos.create p.io ~node:nd ~instance:k ~leader:self_leader
            ~on_decide:ignore
        in
        let c0 = inst 0 in
        Paxos.handle c0 ~src:0 (Paxos.Prepare { b = 6 });
        Paxos.handle (inst 1) ~src:0 (Paxos.Prepare { b = 6 });
        Paxos.handle c0 ~src:0 (Paxos.Prepare { b = 6 });
        match take_sent p with
        | [
         (0, Paxos.Promise { b = 6; _ });
         (0, Paxos.Promise { b = 6; _ });
         (0, Paxos.Reject { b = 6 });
        ] ->
          ()
        | _ -> Alcotest.fail "expected promise, promise, reject");
    test "paxos: a promise lists the instances accepted above it" (fun () ->
        let p = probe ~self:1 () in
        let nd = Paxos.node p.io in
        let inst k =
          Paxos.create p.io ~node:nd ~instance:k ~leader:self_leader
            ~on_decide:ignore
        in
        Paxos.handle (inst 2) ~src:0 (Paxos.Accept { b = 3; v = "x" });
        Paxos.handle (inst 4) ~src:0 (Paxos.Accept { b = 3; v = "y" });
        ignore (take_sent p);
        Paxos.handle (inst 1) ~src:0 (Paxos.Prepare { b = 6 });
        Paxos.handle (inst 3) ~src:0 (Paxos.Prepare { b = 6 });
        match take_sent p with
        | [
         (0, Paxos.Promise { above = [ (2, 3); (4, 3) ]; _ });
         (0, Paxos.Promise { above = [ (4, 3) ]; _ });
        ] ->
          ()
        | _ -> Alcotest.fail "expected promises listing [2;4] then [4]");
    test "paxos: a held term skips phase 1 except where a promise listed"
      (fun () ->
        let p = probe () in
        let nd = Paxos.node p.io in
        let inst k =
          Paxos.create p.io ~node:nd ~instance:k ~leader:self_leader
            ~on_decide:ignore
        in
        let c0 = inst 0 in
        Paxos.propose c0 "a";
        let b =
          match sent_prepares (take_sent p) with
          | (_, b) :: _ -> b
          | [] -> Alcotest.fail "no prepare"
        in
        Paxos.handle c0 ~src:1
          (Paxos.Promise { b; accepted = None; above = [ (2, 1) ] });
        Paxos.handle c0 ~src:2 (Paxos.Promise { b; accepted = None; above = [] });
        ignore (take_sent p);
        Paxos.propose (inst 1) "b";
        (match take_sent p with
        | [ (0, Paxos.Accept { b = b0; v = "b" }); _; _ ] when b0 = b -> ()
        | _ -> Alcotest.fail "expected a direct accept at the term ballot");
        Paxos.propose (inst 2) "c";
        Alcotest.(check (list (pair int int))) "listed instance runs phase 1"
          [ (0, b); (1, b); (2, b) ]
          (sent_prepares (take_sent p)));
  ]

(* ---------------- Coord ---------------- *)

let coord_make ?(self = 0) () =
  let p = probe ~self () in
  let decided = ref None in
  let c =
    Coord.create p.io ~node:(Coord.node p.io) ~instance:0 ~leader:self_leader ~on_decide:(fun v ->
        decided := Some v)
  in
  (p, c, decided)

let coord_tests =
  [
    test "coord: propose sends an estimate to round 0's coordinator" (fun () ->
        let p, c, _ = coord_make ~self:1 () in
        Coord.propose c "v";
        match take_sent p with
        | [ (0, Coord.Estimate { r = 0; v = "v"; ts = -1 }) ] -> ()
        | _ -> Alcotest.fail "expected estimate to coordinator 0");
    test "coord: coordinator proposes the highest-timestamp estimate" (fun () ->
        let p, c, _ = coord_make ~self:0 () in
        Coord.propose c "own";
        ignore (take_sent p);
        Coord.handle c ~src:0 (Coord.Estimate { r = 0; v = "own"; ts = -1 });
        Coord.handle c ~src:1 (Coord.Estimate { r = 0; v = "locked"; ts = 3 });
        let proposals =
          List.filter_map
            (fun (_, m) ->
              match m with Coord.Proposal { r = 0; v } -> Some v | _ -> None)
            (take_sent p)
        in
        Alcotest.(check bool) "proposal broadcast" true (proposals <> []);
        List.iter (Alcotest.(check string) "highest ts wins" "locked") proposals);
    test "coord: adopting a proposal logs the lock before acking" (fun () ->
        let p, c, _ = coord_make ~self:1 () in
        Coord.propose c "v";
        ignore (take_sent p);
        Coord.handle c ~src:0 (Coord.Proposal { r = 0; v = "w" });
        (match take_sent p with
        | [ (0, Coord.Ack { r = 0 }) ] -> ()
        | _ -> Alcotest.fail "expected ack to coordinator");
        Alcotest.(check bool) "locked durably" true
          (Storage.mem p.store
             (Abcast_consensus.Consensus_intf.Keys.inst 0 "coord.locked")));
    test "coord: a majority of acks decides" (fun () ->
        let p, c, decided = coord_make ~self:0 () in
        Coord.propose c "own";
        ignore (take_sent p);
        Coord.handle c ~src:0 (Coord.Estimate { r = 0; v = "own"; ts = -1 });
        Coord.handle c ~src:1 (Coord.Estimate { r = 0; v = "own"; ts = -1 });
        ignore (take_sent p);
        Coord.handle c ~src:0 (Coord.Ack { r = 0 });
        Coord.handle c ~src:1 (Coord.Ack { r = 0 });
        Alcotest.(check (option string)) "decided" (Some "own") !decided;
        Alcotest.(check bool) "announced" true
          (List.exists
             (fun (_, m) -> match m with Coord.Decide _ -> true | _ -> false)
             (take_sent p)));
    test "coord: decide cancels every round timer" (fun () ->
        let p, c, decided = coord_make ~self:0 () in
        (* traffic of round 3 (coordinated here) pulls us into it before
           we propose; the propose re-enters round 3 and arms a second
           timer of the same round *)
        Coord.handle c ~src:1 (Coord.Estimate { r = 3; v = "own"; ts = -1 });
        Coord.propose c "own";
        Alcotest.(check int) "round timers live" 2 (live_timers p);
        Coord.handle c ~src:0 (Coord.Estimate { r = 3; v = "own"; ts = -1 });
        Coord.handle c ~src:1 (Coord.Estimate { r = 3; v = "own"; ts = -1 });
        Coord.handle c ~src:0 (Coord.Ack { r = 3 });
        Coord.handle c ~src:1 (Coord.Ack { r = 3 });
        Alcotest.(check (option string)) "decided" (Some "own") !decided;
        Alcotest.(check int) "no live timer" 0 (live_timers p));
    test "coord: a new round cancels the old round's timers" (fun () ->
        let p, c, _ = coord_make ~self:1 () in
        Coord.propose c "v";
        Coord.handle c ~src:2 (Coord.Estimate { r = 7; v = "x"; ts = 2 });
        Alcotest.(check int) "only round 7's timer" 1 (live_timers p));
    test "coord: higher-round traffic fast-forwards the round" (fun () ->
        let p, c, _ = coord_make ~self:1 () in
        Coord.propose c "v";
        ignore (take_sent p);
        Coord.handle c ~src:2 (Coord.Estimate { r = 7; v = "x"; ts = 2 });
        (* joining round 7 re-sends our estimate to coordinator 7 mod 3 = 1,
           i.e. ourselves — the send is still visible *)
        let estimates =
          List.filter_map
            (fun (dst, m) ->
              match m with Coord.Estimate { r; _ } -> Some (dst, r) | _ -> None)
            (take_sent p)
        in
        Alcotest.(check bool) "joined round 7" true
          (List.exists (fun (_, r) -> r = 7) estimates));
    test "coord: decided instance answers with Decide" (fun () ->
        let p, c, _ = coord_make ~self:2 () in
        Coord.handle c ~src:0 (Coord.Decide { v = "d" });
        Alcotest.(check int) "not echoed" 0 (List.length (take_sent p));
        Coord.handle c ~src:1 (Coord.Estimate { r = 0; v = "x"; ts = -1 });
        (match take_sent p with
        | (1, Coord.Decide { v = "d" }) :: _ -> ()
        | _ -> Alcotest.fail "expected Decide reply");
        Coord.handle c ~src:0 (Coord.Proposal { r = 0; v = "d" });
        Alcotest.(check int) "no reply to the teller" 0
          (List.length (take_sent p)));
    test "coord: a coordinator ignores the late acks its Decide covered"
      (fun () ->
        let p, c, _ = coord_make ~self:0 () in
        Coord.propose c "own";
        Coord.handle c ~src:0 (Coord.Estimate { r = 0; v = "own"; ts = -1 });
        Coord.handle c ~src:1 (Coord.Estimate { r = 0; v = "own"; ts = -1 });
        Coord.handle c ~src:0 (Coord.Ack { r = 0 });
        Coord.handle c ~src:1 (Coord.Ack { r = 0 });
        ignore (take_sent p);
        Coord.handle c ~src:2 (Coord.Estimate { r = 0; v = "x"; ts = -1 });
        Coord.handle c ~src:2 (Coord.Ack { r = 0 });
        Alcotest.(check int) "late estimate and ack unanswered" 0
          (List.length (take_sent p));
        (* a later round's estimate means node 2 lost the Decide *)
        Coord.handle c ~src:2 (Coord.Estimate { r = 3; v = "x"; ts = -1 });
        match take_sent p with
        | [ (2, Coord.Decide { v = "own" }) ] -> ()
        | _ -> Alcotest.fail "expected a Decide for the later round");
    test "coord: stale acks from an older incarnation cannot decide" (fun () ->
        (* coordinator restarted mid-round: proposed_round is volatile, so
           acks arriving for its pre-crash proposal are ignored *)
        let p, c, decided = coord_make ~self:0 () in
        Coord.propose c "v";
        ignore (take_sent p);
        (* acks without any proposal sent by THIS incarnation *)
        Coord.handle c ~src:1 (Coord.Ack { r = 0 });
        Coord.handle c ~src:2 (Coord.Ack { r = 0 });
        Alcotest.(check (option string)) "no decision" None !decided;
        ignore p);
  ]

(* ---------------- Multi answers for the log ---------------- *)

(* [Multi.proposal]/[decision] answer from the live instance, or from
   the log when no instance exists; either way they must equal the log.
   A seeded walk proposes, learns decisions, touches fresh instances,
   truncates and recovers (a new manager over the same store), and
   compares every instance up to just past the floor with a direct
   [Storage.read] after each step. *)
module Log_agreement (C : Abcast_consensus.Consensus_intf.S) = struct
  module M = Abcast_consensus.Multi.Make (C)
  module Keys = Abcast_consensus.Consensus_intf.Keys

  let run ~decide ~query () =
    let p = probe () in
    let boot () =
      M.create p.io ~leader:(Abcast_fd.Omega.fixed 0)
        ~on_ready:ignore ~on_behind:(fun ~src:_ -> ())
    in
    let m = ref (boot ()) in
    let rng = Rng.create 7 in
    let check step =
      for k = 0 to M.floor !m + 8 do
        let what field = Printf.sprintf "step %d: %s of %d" step field k in
        Alcotest.(check (option string)) (what "proposal")
          (Storage.read p.store (Keys.proposal k))
          (M.proposal !m k);
        Alcotest.(check (option string)) (what "decision")
          (Storage.read p.store (Keys.decision k))
          (M.decision !m k)
      done
    in
    let truncations = ref 0 and recoveries = ref 0 in
    for step = 1 to 300 do
      let floor = M.floor !m in
      let k = floor + Rng.int rng 6 in
      (match Rng.int rng 10 with
      | 0 | 1 | 2 -> M.propose !m k (Printf.sprintf "p%d.%d" k step)
      | 3 | 4 | 5 ->
        M.handle !m ~src:1 (M.Inst (k, decide (Printf.sprintf "d%d" k)))
      | 6 -> M.handle !m ~src:2 (M.Inst (k, query))
      | 7 ->
        incr truncations;
        M.truncate_below !m (floor + 1 + Rng.int rng 2)
      | _ ->
        incr recoveries;
        m := boot ());
      check step
    done;
    Alcotest.(check bool) "walked through truncations and recoveries" true
      (!truncations > 0 && !recoveries > 0)
end

module Paxos_log = Log_agreement (Paxos)
module Coord_log = Log_agreement (Coord)

(* [chase] asks for the cursor's decision only when a peer has reported
   a cursor past ours, and once per cursor instance however often the
   hint repeats. *)
let chase_test () =
  let module M = Abcast_consensus.Multi.Make (Paxos) in
  let p = probe ~self:1 () in
  let m =
    M.create p.io ~leader:(Abcast_fd.Omega.fixed 0) ~on_ready:ignore
      ~on_behind:(fun ~src:_ -> ())
  in
  (* the instances whose Query left, one entry per multisend *)
  let queried () =
    List.filter_map
      (fun (dst, msg) ->
        match msg with M.Inst (k, Paxos.Query) when dst = 0 -> Some k | _ -> None)
      (take_sent p)
  in
  let check what expect =
    Alcotest.(check (list int)) what expect (queried ())
  in
  M.chase m;
  M.hear m 0;
  M.chase m;
  check "not behind" [];
  M.hear m 3;
  M.chase m;
  M.hear m 4;
  M.chase m;
  M.chase m;
  check "one query for the cursor's instance" [ 0 ];
  M.seek m 1;
  M.handle m ~src:2 (M.Truncated { floor = 5 });
  M.chase m;
  M.chase m;
  check "one more once the cursor moves" [ 1 ];
  M.seek m 5;
  M.chase m;
  check "caught up with every hint" []

let multi_tests =
  [
    test "multi over paxos: proposal and decision equal the log at every step"
      (Paxos_log.run ~decide:(fun v -> Paxos.Decide { v }) ~query:Paxos.Query);
    test "multi over coord: proposal and decision equal the log at every step"
      (Coord_log.run ~decide:(fun v -> Coord.Decide { v }) ~query:Coord.Query);
    test "multi: repeated hints past the cursor send one query per instance"
      chase_test;
  ]

let suite = ("consensus-unit", paxos_tests @ coord_tests @ multi_tests)
