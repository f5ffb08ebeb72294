(* Tests for the heartbeat failure detector and the Omega oracle. *)

open Helpers
module Heartbeat = Abcast_fd.Heartbeat
module Omega = Abcast_fd.Omega

(* Build an engine whose nodes each run one heartbeat detector. *)
let make_cluster ?(n = 3) ?(seed = 1) ?net () =
  let eng = Engine.create ~seed ~n ?net () in
  let fds = Array.make n None in
  for i = 0 to n - 1 do
    Engine.set_behavior eng i (fun io ->
        let hb = Heartbeat.create io in
        fds.(i) <- Some hb;
        Heartbeat.handle hb)
  done;
  Engine.start_all eng;
  let fd i = match fds.(i) with Some hb -> hb | None -> assert false in
  (eng, fd)

(* A stack in miniature: a detector under a chatter layer that sends
   [Chat] frames through [Heartbeat.watch] every [chat_gap] µs along the
   links [chats] selects. Every received frame refreshes trust, as in
   the protocol's node handler. [beats.(src).(dst)] counts the Beats that
   crossed each link. *)
type frame = Beat of Heartbeat.msg | Chat

let chatter_cluster ?(n = 3) ?(seed = 1) ?(chat_gap = 500) ?flight ~chats () =
  let net = Net.create ~heavy_tail:0.0 () in
  let eng = Engine.create ~seed ~n ~net ?flight () in
  let fds = Array.make n None in
  let beats = Array.make_matrix n n 0 in
  for i = 0 to n - 1 do
    Engine.set_behavior eng i (fun io ->
        let hb = Heartbeat.create (Engine.map_io (fun m -> Beat m) io) in
        fds.(i) <- Some hb;
        let io = Heartbeat.watch hb io in
        let rec chat () =
          for d = 0 to n - 1 do
            if d <> i && chats ~src:i ~dst:d then io.send d Chat
          done;
          ignore (io.after chat_gap chat)
        in
        chat ();
        fun ~src m ->
          Heartbeat.heard hb ~src;
          match m with
          | Beat b ->
            beats.(src).(i) <- beats.(src).(i) + 1;
            Heartbeat.handle hb ~src b
          | Chat -> ())
  done;
  Engine.start_all eng;
  let fd i = match fds.(i) with Some hb -> hb | None -> assert false in
  (eng, fd, beats)

let period = 2_000
let timeout = 5 * period

(* What the simulator cannot do: stall a node's event loop. Node 0's
   detector and a chatter layer share one hand-driven loop; the chatter
   sends node 1 a frame every 500 µs from [phase] until [quiet_at], then
   the link goes quiet. From [stall_at] the loop runs nothing for [stall] µs, then
   runs every overdue timer late, as the live runtime does. Node 1's
   detector hears each frame the moment it leaves. Returns the first
   time node 1 stopped trusting node 0, if it did before [until]. *)
let stalled_sender ~phase ~quiet_at ~stall_at ~stall ~until =
  let clock = ref 0 in
  let timers = ref [] and seq = ref 0 in
  let io self send : _ Engine.io =
    {
      self;
      n = 2;
      group = 0;
      incarnation = 0;
      now = (fun () -> !clock);
      send;
      multisend = (fun m -> send (1 - self) m);
      after =
        (fun delay f ->
          incr seq;
          let timer = Engine.Timer.make f in
          if self = 0 then timers := (!clock + delay, !seq, timer) :: !timers;
          timer);
      store = Storage.create ~metrics:(Metrics.create ()) ~node:self ();
      rng = Rng.create 1;
      metrics = Metrics.create ();
      flight = Abcast_sim.Flight.disabled;
      alarm = ignore;
    }
  in
  let hb1 = Heartbeat.create (io 1 (fun _ _ -> ())) in
  let hb0 = Heartbeat.create (io 0 (fun _ b -> Heartbeat.handle hb1 ~src:0 b)) in
  let chat_io = Heartbeat.watch hb0 (io 0 (fun _ () -> Heartbeat.heard hb1 ~src:0)) in
  let rec chat () =
    if !clock < quiet_at then begin
      chat_io.send 1 ();
      ignore (chat_io.after 500 chat)
    end
  in
  ignore (chat_io.after phase chat);
  let rec run_due () =
    match
      List.sort compare
        (List.filter_map
           (fun (at, id, _) -> if at <= !clock then Some (at, id) else None)
           !timers)
    with
    | [] -> ()
    | (_, id) :: _ ->
      let f = List.find_map (fun (_, i, f) -> if i = id then Some f else None) !timers in
      timers := List.filter (fun (_, i, _) -> i <> id) !timers;
      Option.iter (fun f -> ignore (Engine.Timer.fire f)) f;
      run_due ()
  in
  let rec step () =
    if !clock > until then None
    else if not (Heartbeat.trusted hb1 0) then Some !clock
    else begin
      if !clock < stall_at || !clock >= stall_at + stall then run_due ();
      if Heartbeat.trusted hb1 0 then begin
        clock := !clock + 50;
        step ()
      end
      else Some !clock
    end
  in
  step ()

let implicit_tests =
  [
    test "busy links carry only epoch Beats, idle links beat every period"
      (fun () ->
        (* node 0 leads; 0 -> 1 carries a frame every 500 µs; every other
           link is idle *)
        let eng, fd, beats =
          chatter_cluster ~chats:(fun ~src ~dst -> src = 0 && dst = 1) ()
        in
        Engine.run eng ~until:20_000;
        let before = Array.map Array.copy beats in
        let window = 100_000 in
        Engine.run eng ~until:(20_000 + window);
        let crossed s d = beats.(s).(d) - before.(s).(d) in
        (* the period rule never fires on the busy link, and a fresh
           leader owes no epoch Beat: at most a recovered leader's epoch
           refresh, one per timeout/2, could cross it *)
        let busy = crossed 0 1 in
        if busy > window / (timeout / 2) then
          Alcotest.failf "busy link 0->1 carried %d Beats in %d us" busy window;
        let idle = crossed 0 2 in
        if idle < (window / period) - 1 then
          Alcotest.failf "the leader's idle link 0->2 carried only %d Beats"
            idle;
        (* followers keep no link alive *)
        List.iter
          (fun (s, d) ->
            Alcotest.(check int)
              (Printf.sprintf "follower link %d->%d" s d)
              0 (crossed s d))
          [ (1, 0); (1, 2); (2, 0); (2, 1) ];
        for i = 0 to 2 do
          Alcotest.(check int) "everyone follows node 0" 0
            (Heartbeat.leader (fd i))
        done);
    test "a 6.5-ms loop stall as a busy link goes quiet raises no suspicion"
      (fun () ->
        (* A Beat goes out once no frame went to the peer for half a
           period, so the link is never silent for more than about 1.5
           periods plus the stall: 3 + 6.5 ms stays under the 10-ms
           timeout wherever the last frame and the stall fall against
           the beat ticks. *)
        for phase = 0 to 4 do
          for q = 0 to 3 do
            let quiet_at = 20_000 + (q * 500) in
            for d = 0 to 2 * period / 100 do
              let stall_at = quiet_at + (d * 100) in
              match
                stalled_sender ~phase:(phase * 100) ~quiet_at ~stall_at
                  ~stall:6_500 ~until:(stall_at + 6_500 + timeout)
              with
              | None -> ()
              | Some at ->
                Alcotest.failf
                  "suspected at %d us (frames from %d, quiet from %d, stall \
                   from %d)"
                  at (phase * 100) quiet_at stall_at
            done
          done
        done);
    test "a crashed peer is suspected within timeout + one period" (fun () ->
        (* every link chats, so the followers hear each other: once node
           0, the leader, crashes, both name node 1 at once *)
        let module Flight = Abcast_sim.Flight in
        let eng, fd, _ =
          chatter_cluster
            ~flight:(fun ~node:_ -> Flight.create ~cap:256 ())
            ~chats:(fun ~src:_ ~dst:_ -> true)
            ()
        in
        Engine.run eng ~until:50_000;
        Engine.crash eng 0;
        Engine.run eng ~until:(50_000 + timeout + period);
        List.iter
          (fun i ->
            Alcotest.(check bool)
              (Printf.sprintf "node %d suspects the leader" i)
              false
              (Heartbeat.trusted (fd i) 0);
            Alcotest.(check int) "next leader" 1 (Heartbeat.leader (fd i)))
          [ 1; 2 ];
        (* the flip is on each follower's flight recorder: peer, epoch *)
        List.iter
          (fun i ->
            match
              List.filter
                (fun (e : Flight.event) -> e.e_stage = Flight.suspect)
                (Flight.events (Engine.flight eng i))
            with
            | [ e ] ->
              Alcotest.(check (pair int int)) "peer 0, epoch 0" (0, 0)
                (e.e_a, e.e_b);
              Alcotest.(check bool) "after the crash" true (e.e_time > 50_000)
            | l -> Alcotest.failf "node %d: %d suspect events" i (List.length l))
          [ 1; 2 ];
        (* the recovered node ranks behind its epoch-0 peers, and its
           epoch reaches every peer *)
        Engine.recover eng 0;
        Engine.run eng ~until:(Engine.now eng + (2 * period));
        for i = 0 to 2 do
          if i <> 0 then
            Alcotest.(check int) "epoch 1 known" 1 (Heartbeat.epoch (fd i) 0);
          Alcotest.(check int) "leader stays" 1 (Heartbeat.leader (fd i))
        done);
    test "a recovered node's epoch reaches every peer while traffic never pauses"
      (fun () ->
        let eng, fd, _ = chatter_cluster ~chats:(fun ~src:_ ~dst:_ -> true) () in
        Engine.run eng ~until:50_000;
        Engine.crash eng 2;
        Engine.run eng ~until:60_000;
        Engine.recover eng 2;
        let knows_epoch e () =
          Heartbeat.epoch (fd 0) 2 = e && Heartbeat.epoch (fd 1) 2 = e
        in
        Alcotest.(check bool) "epoch 1 within timeout/2" true
          (Engine.run_until eng ~until:(60_000 + (timeout / 2))
             ~pred:(knows_epoch 1) ());
        (* the boot Beat lost: the epoch rule still beats through the
           chatter within one timeout window *)
        Engine.crash eng 2;
        Engine.run eng ~until:100_000;
        let net = Engine.network eng in
        Net.partition net (fun ~src ~dst:_ -> src = 2);
        Engine.recover eng 2;
        Engine.at eng 100_001 (fun () -> Net.heal net);
        Alcotest.(check bool) "epoch 2 within one timeout" true
          (Engine.run_until eng ~until:(100_000 + timeout)
             ~pred:(knows_epoch 2) ()));
  ]

let tests =
  [
    test "fresh detector trusts everyone" (fun () ->
        let _eng, fd = make_cluster () in
        for i = 0 to 2 do
          Alcotest.(check (list int)) "no suspects" [] (Heartbeat.suspects (fd i))
        done);
    test "crashed node becomes suspected" (fun () ->
        (* Ω's obligation: every follower suspects a crashed leader
           within timeout + one period (no heavy tail: a frame takes at
           most one period to land), then they agree on the next one *)
        List.iter
          (fun n ->
            let net = Net.create ~heavy_tail:0.0 () in
            let eng, fd = make_cluster ~n ~net () in
            Engine.run eng ~until:50_500;
            Alcotest.(check int) "node 0 leads" 0 (Heartbeat.leader (fd 0));
            Engine.crash eng 0;
            Engine.run eng ~until:(50_500 + timeout + period);
            for i = 1 to n - 1 do
              Alcotest.(check bool)
                (Printf.sprintf "n=%d: follower %d suspects node 0" n i)
                false
                (Heartbeat.trusted (fd i) 0)
            done;
            Engine.run eng ~until:(Engine.now eng + (3 * period));
            for i = 1 to n - 1 do
              Alcotest.(check int)
                (Printf.sprintf "n=%d: follower %d names node 1" n i)
                1
                (Heartbeat.leader (fd i))
            done)
          [ 3; 5 ]);
    test "recovered node is trusted again" (fun () ->
        let eng, fd = make_cluster () in
        Engine.run eng ~until:50_000;
        Engine.crash eng 0;
        Engine.run eng ~until:100_000;
        Engine.recover eng 0;
        Engine.run eng ~until:200_000;
        (* a recovered node keeps beating its epoch to every peer: each
           trusts it, knows epoch 1, and so ranks it behind node 1 *)
        for i = 1 to 2 do
          Alcotest.(check bool) "trusted" true (Heartbeat.trusted (fd i) 0);
          Alcotest.(check int) "epoch 1" 1 (Heartbeat.epoch (fd i) 0)
        done;
        for i = 0 to 2 do
          Alcotest.(check int) "agreed leader" 1 (Heartbeat.leader (fd i))
        done);
    test "epochs reflect incarnations" (fun () ->
        let eng, fd = make_cluster () in
        Engine.run eng ~until:50_000;
        Alcotest.(check int) "epoch 0" 0 (Heartbeat.epoch (fd 0) 2);
        Engine.crash eng 2;
        Engine.recover eng 2;
        Engine.run eng ~until:150_000;
        Alcotest.(check int) "epoch 1" 1 (Heartbeat.epoch (fd 0) 2));
    test "all nodes converge on the same leader" (fun () ->
        let eng, fd = make_cluster ~n:5 () in
        Engine.run eng ~until:100_000;
        let leaders = List.init 5 (fun i -> Heartbeat.leader (fd i)) in
        Alcotest.(check (list int)) "same" [ 0; 0; 0; 0; 0 ] leaders);
    test "a fresh cluster agrees on the leader before any Beat lands"
      (fun () ->
        (* an unheard peer ranks as epoch 0, not below the known ones *)
        let _, fd = make_cluster ~n:5 () in
        let leaders = List.init 5 (fun i -> Heartbeat.leader (fd i)) in
        Alcotest.(check (list int)) "same at t=0" [ 0; 0; 0; 0; 0 ] leaders);
    test "leader avoids a crashed low id" (fun () ->
        let eng, fd = make_cluster ~n:3 () in
        Engine.run eng ~until:50_000;
        Engine.crash eng 0;
        Engine.run eng ~until:200_000;
        Alcotest.(check int) "at 1" 1 (Heartbeat.leader (fd 1));
        Alcotest.(check int) "at 2" 1 (Heartbeat.leader (fd 2)));
    test "leader avoids an oscillating process" (fun () ->
        let eng, fd = make_cluster ~n:3 () in
        (* node 0 oscillates: its epoch keeps growing *)
        for j = 0 to 5 do
          Engine.at eng ((j * 60_000) + 30_000) (fun () -> Engine.crash eng 0);
          Engine.at eng ((j * 60_000) + 40_000) (fun () -> Engine.recover eng 0)
        done;
        Engine.run eng ~until:500_000;
        Alcotest.(check int) "stable leader at 1" 1 (Heartbeat.leader (fd 1));
        Alcotest.(check int) "stable leader at 2" 1 (Heartbeat.leader (fd 2)));
    test "self is always trusted" (fun () ->
        let net = Net.create ~loss:1.0 () in
        let _eng, fd = make_cluster ~net () in
        Alcotest.(check bool) "self" true (Heartbeat.trusted (fd 1) 1));
    test "Omega.of_heartbeat tracks the detector" (fun () ->
        let eng, fd = make_cluster () in
        let omega = Omega.of_heartbeat (fd 1) in
        Engine.run eng ~until:50_000;
        Alcotest.(check int) "leader" (Heartbeat.leader (fd 1)) (omega ()));
    test "Omega.fixed is constant" (fun () ->
        let omega = Omega.fixed 2 in
        Alcotest.(check int) "fixed" 2 (omega ()));
    test "total loss leaves everyone suspected except self" (fun () ->
        let net = Net.create ~loss:1.0 () in
        let eng, fd = make_cluster ~net () in
        Engine.run eng ~until:100_000;
        Alcotest.(check (list int)) "suspects" [ 1; 2 ] (Heartbeat.suspects (fd 0)));
  ]

(* A role change cancels the old role's timer: node 1 of two, on a
   hand-driven clock with its timers captured, watches node 0, leads
   once node 0 falls silent, and watches again once node 0 is heard;
   in every role it holds exactly one live timer. *)
let role_timer_tests =
  [
    test "a role change cancels the old role's timer" (fun () ->
        let clock = ref 0 and timers = ref [] in
        let io : Heartbeat.msg Engine.io =
          {
            self = 1;
            n = 2;
            group = 0;
            incarnation = 0;
            now = (fun () -> !clock);
            send = (fun _ _ -> ());
            multisend = ignore;
            after =
              (fun delay f ->
                let tm = Engine.Timer.make f in
                timers := (!clock + delay, tm) :: !timers;
                tm);
            store = Storage.create ~metrics:(Metrics.create ()) ~node:1 ();
            rng = Rng.create 1;
            metrics = Metrics.create ();
            flight = Abcast_sim.Flight.disabled;
            alarm = ignore;
          }
        in
        let hb = Heartbeat.create ~period ~timeout io in
        let live () =
          List.length
            (List.filter (fun (_, tm) -> Engine.Timer.pending tm) !timers)
        in
        let run_until t =
          clock := t;
          List.iter
            (fun (at, tm) -> if at <= t then ignore (Engine.Timer.fire tm))
            (List.sort (fun (a, _) (b, _) -> compare a b) !timers)
        in
        Alcotest.(check int) "follower of 0" 0 (Heartbeat.leader hb);
        Alcotest.(check int) "watching: one timer" 1 (live ());
        run_until (timeout + 1);
        Alcotest.(check int) "leads once 0 is silent" 1 (Heartbeat.leader hb);
        Alcotest.(check int) "leading: one timer" 1 (live ());
        Heartbeat.heard hb ~src:0;
        Alcotest.(check int) "follows 0 again" 0 (Heartbeat.leader hb);
        Alcotest.(check int) "watching again: one timer" 1 (live ()));
  ]

let suite = ("fd", tests @ implicit_tests @ role_timer_tests)
