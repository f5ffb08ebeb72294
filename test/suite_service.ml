(* The client service layer: session-table dedup semantics, deterministic
   eviction, checkpoint recovery, the read-index lease machine — first as
   pure units, then through the deterministic simulator (crash + recovery
   replays the table from its checkpoint), and finally on the live
   runtime: the crash-recovery dedup scenario of the PR-8 issue (a node
   dies after applying a request, restarts, and the re-submitted
   (session, seq) is served from the reply cache, not re-applied). *)

open Helpers
module Envelope = Abcast_core.Envelope
module Kv = Abcast_apps.Kv
module Session = Abcast_service.Session
module Service = Abcast_service.Service
module Loadgen = Abcast_service.Loadgen

let request ~session ~seq cmd =
  Envelope.encode (Envelope.Request { session; seq; cmd })

let incr ~session ~seq key = request ~session ~seq (Kv.incr_cmd ~key)

let status_pp = function
  | Envelope.Applied -> "applied"
  | Envelope.Cached -> "cached"
  | Envelope.Gap -> "gap"

let status = Alcotest.testable (Fmt.of_to_string status_pp) ( = )

let apply_request m data =
  match Session.apply m data with
  | Session.Request_done { status; reply; _ } -> (status, reply)
  | _ -> Alcotest.fail "expected a Request_done event"

let unit_tests =
  [
    test "session: first apply executes, duplicate hits the cache" (fun () ->
        let m = Session.create () in
        let st, reply = apply_request m (incr ~session:7 ~seq:1 "k") in
        Alcotest.check status "first" Envelope.Applied st;
        Alcotest.(check string) "incr reply" "1" reply;
        let st, reply = apply_request m (incr ~session:7 ~seq:1 "k") in
        Alcotest.check status "duplicate" Envelope.Cached st;
        Alcotest.(check string) "cached reply" "1" reply;
        (* the non-idempotent Incr is the witness: one apply, not two *)
        Alcotest.(check (option string)) "applied once" (Some "1")
          (Session.get m "k");
        Alcotest.(check (option int)) "floor" (Some 1) (Session.floor m 7));
    test "session: seq below the floor is a gap, not a re-apply" (fun () ->
        let m = Session.create () in
        ignore (Session.apply m (incr ~session:3 ~seq:1 "k"));
        ignore (Session.apply m (incr ~session:3 ~seq:2 "k"));
        let st, _ = apply_request m (incr ~session:3 ~seq:1 "k") in
        Alcotest.check status "below floor" Envelope.Gap st;
        Alcotest.(check (option string)) "count unchanged" (Some "2")
          (Session.get m "k"));
    test "session: sessions are independent" (fun () ->
        let m = Session.create () in
        ignore (Session.apply m (incr ~session:1 ~seq:1 "k"));
        let st, reply = apply_request m (incr ~session:2 ~seq:1 "k") in
        Alcotest.check status "other session applies" Envelope.Applied st;
        Alcotest.(check string) "sees the first incr" "2" reply);
    test "session: get and set replies" (fun () ->
        let m = Session.create () in
        ignore
          (Session.apply m
             (request ~session:1 ~seq:1 (Kv.set_cmd ~key:"a" ~value:"x")));
        let st, reply =
          apply_request m (request ~session:1 ~seq:2 (Kv.get_cmd ~key:"a"))
        in
        Alcotest.check status "get applied" Envelope.Applied st;
        Alcotest.(check string) "get reply" "x" reply);
    test "session: foreign payloads hit the store, not the table" (fun () ->
        let m = Session.create () in
        (match Session.apply m (Kv.set_cmd ~key:"f" ~value:"1") with
        | Session.Foreign _ -> ()
        | _ -> Alcotest.fail "expected Foreign");
        Alcotest.(check (option string)) "applied" (Some "1")
          (Session.get m "f");
        Alcotest.(check int) "no session created" 0 (Session.session_count m));
    test "session: claim and lease marker semantics" (fun () ->
        let m = Session.create () in
        let granted data =
          match Session.apply m data with
          | Session.Marker { granted; _ } -> granted
          | _ -> Alcotest.fail "expected a Marker event"
        in
        Alcotest.(check bool) "lease without a leader is refused" false
          (granted (Envelope.encode (Envelope.Lease { node = 0; stamp = 1 })));
        Alcotest.(check bool) "claim always lands" true
          (granted (Envelope.encode (Envelope.Claim { node = 0; stamp = 2 })));
        Alcotest.(check int) "leader view" 0 (Session.leader m);
        Alcotest.(check bool) "leader's renewal is granted" true
          (granted (Envelope.encode (Envelope.Lease { node = 0; stamp = 3 })));
        Alcotest.(check bool) "someone else's renewal is not" false
          (granted (Envelope.encode (Envelope.Lease { node = 2; stamp = 4 })));
        Alcotest.(check bool) "a rival claim takes the view" true
          (granted (Envelope.encode (Envelope.Claim { node = 2; stamp = 5 })));
        Alcotest.(check int) "new leader" 2 (Session.leader m));
    test "session: eviction is LRU by apply index and deterministic"
      (fun () ->
        let run () =
          let m = Session.create ~max_sessions:3 () in
          for s = 1 to 3 do
            ignore (Session.apply m (incr ~session:s ~seq:1 "k"))
          done;
          (* touch 1 so that 2 is now the least recently used *)
          ignore (Session.apply m (incr ~session:1 ~seq:2 "k"));
          ignore (Session.apply m (incr ~session:4 ~seq:1 "k"));
          m
        in
        let m = run () in
        Alcotest.(check int) "capped" 3 (Session.session_count m);
        Alcotest.(check (option int)) "victim was the LRU session" None
          (Session.floor m 2);
        Alcotest.(check (option int)) "recently touched survives" (Some 2)
          (Session.floor m 1);
        Alcotest.(check string) "replica determinism" (Session.digest m)
          (Session.digest (run ())));
    test "session: evicted session re-registers from scratch" (fun () ->
        let m = Session.create ~max_sessions:1 () in
        ignore (Session.apply m (incr ~session:1 ~seq:5 "a"));
        ignore (Session.apply m (incr ~session:2 ~seq:1 "b"));
        (* session 1 was evicted: its floor is gone, so a re-submitted
           seq 5 re-applies — the documented truncation hazard the cap
           must be provisioned against (see DESIGN.md) *)
        let st, _ = apply_request m (incr ~session:1 ~seq:5 "a") in
        Alcotest.check status "re-applied after eviction" Envelope.Applied st);
    test "session: checkpoint/install roundtrip" (fun () ->
        let m = Session.create () in
        ignore (Session.apply m (incr ~session:9 ~seq:4 "k"));
        ignore
          (Session.apply m (Envelope.encode (Envelope.Claim { node = 1; stamp = 7 })));
        let m2 = Session.create () in
        (Session.hooks m2).install ((Session.hooks m).checkpoint ());
        Alcotest.(check string) "digest" (Session.digest m) (Session.digest m2);
        Alcotest.(check (option int)) "floor" (Some 4) (Session.floor m2 9);
        Alcotest.(check (option string)) "reply cache" (Some "1")
          (Session.cached_reply m2 9);
        Alcotest.(check int) "leader" 1 (Session.leader m2);
        Alcotest.(check int) "apply index" 2 (Session.applied m2);
        let st, reply = apply_request m2 (incr ~session:9 ~seq:4 "k") in
        Alcotest.check status "dedup survives the roundtrip" Envelope.Cached st;
        Alcotest.(check string) "cached reply survives" "1" reply);
    test "session: corrupt checkpoint is refused" (fun () ->
        let m = Session.create () in
        Alcotest.check_raises "bad blob"
          (Abcast_util.Wire.Error "session checkpoint: bad version 120")
          (fun () -> Session.install m "xyz"));
  ]

(* --- the lease rule under a fake clock -------------------------------- *)

module Lease_view = Abcast_service.Lease_view

(* Three replicas apply one random total order of Claim/Lease markers
   from random nodes, each at random times after the marker's broadcast
   t0, in order; replicas crash and recover at random, reinstalling a
   random checkpoint prefix (at or below what they applied: WAL replay
   of the rest; above it: a state-transfer jump). Two replicas must
   never serve at the same instant. Serving intervals open only at an
   event or at some event + lease + epsilon, so probing there (and on a
   5-ms grid besides) finds any overlap. *)
let lease_overlap_prop =
  QCheck.Test.make ~name:"lease view: no two replicas serve at once"
    ~count:2000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let unif a b = a +. Random.State.float rng (b -. a) in
      let n = 3 and lease_s = 1.0 in
      let m = 4 + Random.State.int rng 13 in
      (* broadcast times overlap, so concurrent markers get ordered
         either way round *)
      let t0 = Array.init m (fun i -> (0.15 *. float_of_int i) +. unif 0. 0.6) in
      (* leader.(c): leader view after the first c markers. Mostly the
         leader renews; otherwise a random node claims or renews. *)
      let leader = Array.make (m + 1) (-1) in
      let marker =
        Array.init m (fun i ->
            let l = leader.(i) in
            let mk =
              if l >= 0 && Random.State.int rng 100 < 65 then (`Lease, l)
              else
                ( (if Random.State.bool rng then `Claim else `Lease),
                  Random.State.int rng n )
            in
            leader.(i + 1) <- (match mk with `Claim, node -> node | _ -> l);
            mk)
      in
      let granted i =
        match marker.(i) with `Claim, _ -> true | `Lease, node -> leader.(i) = node
      in
      let events = ref [] in
      let at time ev = events := (time, ev) :: !events in
      Array.iteri (fun i _ -> at t0.(i) (`Send i)) t0;
      for r = 0 to n - 1 do
        let last = ref 0. in
        for i = 0 to m - 1 do
          let lag = if Random.State.int rng 4 = 0 then 2.0 else 0.3 in
          last := Float.max !last t0.(i) +. unif 1e-6 lag;
          at !last (`Apply (r, i))
        done;
        for _ = 1 to Random.State.int rng 3 do
          at (unif 0. (!last +. 0.5)) (`Recover r)
        done
      done;
      let events = List.sort compare !events in
      let views = Array.init n (fun self -> Lease_view.create ~self ~lease_s) in
      let next = Array.make n 0 in
      let apply r i ~now =
        let kind, node = marker.(i) in
        Lease_view.on_marker views.(r) ~now ~kind ~node ~stamp:i
          ~granted:(granted i)
      in
      let step (now, ev) =
        match ev with
        | `Send i -> Lease_view.sent views.(snd marker.(i)) ~now ~stamp:i
        | `Apply (r, i) ->
          if i = next.(r) then (
            apply r i ~now;
            next.(r) <- i + 1)
        | `Recover r ->
          (* a checkpoint only folds in markers already broadcast *)
          let rec sent k = if k < m && t0.(k) < now then sent (k + 1) else k in
          let c = Random.State.int rng (sent 0 + 1) in
          views.(r) <- Lease_view.create ~self:r ~lease_s;
          if c > 0 then Lease_view.on_install views.(r) ~now ~leader:leader.(c);
          for i = c to next.(r) - 1 do
            apply r i ~now
          done;
          next.(r) <- max c next.(r)
      in
      let horizon = fst (List.nth events (List.length events - 1)) +. lease_s in
      let probes =
        List.concat_map
          (fun (e, _) -> [ e; e +. lease_s +. Lease_view.epsilon ])
          events
        @ List.init (int_of_float (horizon /. 0.005)) (fun k -> float_of_int k *. 0.005)
        |> List.sort_uniq compare
      in
      let rec check events = function
        | [] -> true
        | p :: probes ->
          let rec run = function
            | ((e, _) as ev) :: rest when e <= p ->
              step ev;
              run rest
            | rest -> rest
          in
          let events = run events in
          let serving =
            Array.fold_left
              (fun k v -> if Lease_view.serves v ~now:p then k + 1 else k)
              0 views
          in
          serving <= 1 && check events probes
      in
      check events probes)

(* --- deterministic simulator: the table is app state ------------------ *)

(* Register one Session machine per process as protocol app state via the
   app factory; events observed at each process are recorded so
   dedup decisions can be asserted, not just final state. *)
let sim_stack ~machines ~events =
  Factory.make
    ~app_factory:(fun ~node ~group ->
      assert (group = 0);
      let m = Session.create () in
      machines.(node) <- m;
      ( Session.hooks m,
        fun (pl : Payload.t) ->
          events.(node) <- Session.apply m pl.data :: events.(node) ))
    { Protocol.paper_alternative with checkpoint_period = Some 20_000 }

let applied_requests evs ~session ~seq =
  List.filter
    (function
      | Session.Request_done { session = s; seq = q; status = Envelope.Applied; _ }
        ->
        s = session && q = seq
      | _ -> false)
    evs

let sim_tests =
  [
    test "sim: re-submitted request dedups across crash and recovery"
      (fun () ->
        let n = 3 in
        let machines = Array.init n (fun _ -> Session.create ()) in
        let events = Array.make n [] in
        let cluster =
          Cluster.create (sim_stack ~machines ~events) ~seed:11 ~n ()
        in
        (* session 5 applies seq 1 everywhere, then node 1 crashes, the
           protocol compacts on, node 1 recovers from its checkpoint, and
           the client re-submits the same (5, 1). *)
        Cluster.at cluster 1_000 (fun () ->
            ignore (Cluster.broadcast cluster ~node:0 (incr ~session:5 ~seq:1 "k")));
        Cluster.at cluster 40_000 (fun () -> Cluster.crash cluster 1);
        for j = 0 to 9 do
          (* unrelated traffic while node 1 is down, to force checkpoint
             motion past the original request *)
          Cluster.at cluster (60_000 + (j * 5_000)) (fun () ->
              ignore
                (Cluster.broadcast cluster ~node:(2 * (j mod 2))
                   (incr ~session:6 ~seq:(j + 1) "other")))
        done;
        Cluster.at cluster 150_000 (fun () -> Cluster.recover cluster 1);
        Cluster.at cluster 220_000 (fun () ->
            ignore (Cluster.broadcast cluster ~node:1 (incr ~session:5 ~seq:1 "k")));
        let ok =
          Cluster.run_until cluster ~until:60_000_000
            ~pred:(fun () ->
              Cluster.now cluster > 220_000
              && Cluster.all_caught_up cluster
                   ~count:(List.length (Cluster.sent cluster))
                   ())
            ()
        in
        Alcotest.(check bool) "quiesced" true ok;
        for i = 0 to n - 1 do
          Alcotest.(check (option string))
            (Printf.sprintf "node %d: applied exactly once" i)
            (Some "1")
            (Session.get machines.(i) "k");
          Alcotest.(check (option int))
            (Printf.sprintf "node %d: floor" i)
            (Some 1)
            (Session.floor machines.(i) 5)
        done;
        (* at a process that never crashed, the second submission must
           have been answered from the cache *)
        Alcotest.(check int) "one real apply at node 0" 1
          (List.length (applied_requests events.(0) ~session:5 ~seq:1));
        let cached =
          List.exists
            (function
              | Session.Request_done
                  { session = 5; seq = 1; status = Envelope.Cached; _ } ->
                true
              | _ -> false)
            events.(0)
        in
        Alcotest.(check bool) "duplicate served from cache" true cached;
        (* replica state machines converged *)
        let d0 = Session.digest machines.(0) in
        for i = 1 to n - 1 do
          Alcotest.(check string)
            (Printf.sprintf "digest %d" i)
            d0
            (Session.digest machines.(i))
        done);
    test "sim: recovered table answers from the WAL checkpoint" (fun () ->
        (* same shape, but the re-submission lands while the original
           request is only in node 1's installed checkpoint (the tail was
           compacted away), so a wrong recovery would re-apply *)
        let n = 3 in
        let machines = Array.init n (fun _ -> Session.create ()) in
        let events = Array.make n [] in
        let cluster =
          Cluster.create (sim_stack ~machines ~events) ~seed:23 ~n ()
        in
        Cluster.at cluster 1_000 (fun () ->
            ignore
              (Cluster.broadcast cluster ~node:2 (incr ~session:1 ~seq:1 "c1")));
        Cluster.at cluster 2_500 (fun () ->
            ignore
              (Cluster.broadcast cluster ~node:2 (incr ~session:1 ~seq:2 "c1")));
        Cluster.at cluster 80_000 (fun () -> Cluster.crash cluster 1);
        Cluster.at cluster 140_000 (fun () -> Cluster.recover cluster 1);
        Cluster.at cluster 200_000 (fun () ->
            ignore
              (Cluster.broadcast cluster ~node:1 (incr ~session:1 ~seq:2 "c1")));
        let ok =
          Cluster.run_until cluster ~until:60_000_000
            ~pred:(fun () ->
              Cluster.now cluster > 200_000
              && Cluster.all_caught_up cluster
                   ~count:(List.length (Cluster.sent cluster))
                   ())
            ()
        in
        Alcotest.(check bool) "quiesced" true ok;
        for i = 0 to n - 1 do
          Alcotest.(check (option string))
            (Printf.sprintf "node %d: two applies, not three" i)
            (Some "2")
            (Session.get machines.(i) "c1")
        done);
  ]

(* --- live runtime: the issue's crash-recovery dedup scenario ---------- *)

let with_service ?(cfg = Service.default_config) ~base_port f =
  with_temp_dir "abcast-service" @@ fun dir ->
  match Service.create ~base_port ~dir cfg with
  | exception Unix.Unix_error (err, _, _) ->
    Alcotest.skip () |> ignore;
    Printf.printf "skipping live service test: %s\n" (Unix.error_message err)
  | svc -> Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

let await ?(timeout = 15.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let live_tests =
  [
    slow_test "live: crash after apply, recover, re-submit -> cached reply"
      (fun () ->
        with_service ~base_port:7611 (fun svc ->
            let rt = Service.runtime svc in
            (* submit at node 0 and wait until the whole cluster applied
               it — node 0 has applied but the client never consumed the
               ack (the "crash between apply and reply" window) *)
            Service.submit svc ~node:0 ~session:42 ~seq:1
              ~cmd:(Kv.incr_cmd ~key:"x") (fun _ _ -> ());
            let applied_everywhere () =
              List.for_all
                (fun i -> Service.value svc ~node:i ~key:"x" = "1")
                [ 0; 1; 2 ]
            in
            Alcotest.(check bool) "applied" true (await applied_everywhere);
            Abcast_live.Runtime.crash rt 0;
            Abcast_live.Runtime.recover rt 0;
            (* the recovered node must have its session table back (WAL
               checkpoint + tail replay) before the retry arrives *)
            let floor_back () =
              Abcast_live.Runtime.is_up rt 0
              && Service.floor svc ~node:0 ~session:42 ~key:"x" = Some 1
            in
            Alcotest.(check bool) "table recovered" true (await floor_back);
            let result = ref None in
            let done_ () = !result <> None in
            Service.submit svc ~node:0 ~session:42 ~seq:1
              ~cmd:(Kv.incr_cmd ~key:"x") (fun st reply ->
                result := Some (st, reply));
            Alcotest.(check bool) "acked" true (await done_);
            (match !result with
            | Some (st, reply) ->
              Alcotest.check status "served from the cache" Envelope.Cached st;
              Alcotest.(check string) "original reply" "1" reply
            | None -> assert false);
            (* and the non-idempotent counter proves nothing re-applied *)
            let quiesced () =
              List.for_all
                (fun i -> Service.value svc ~node:i ~key:"x" = "1")
                [ 0; 1; 2 ]
            in
            Alcotest.(check bool) "applied exactly once" true (await quiesced)));
    slow_test "live: read-index serves under a lease, stale serves anywhere"
      (fun () ->
        let cfg =
          { Service.default_config with read_mode = Service.Read_index }
        in
        with_service ~cfg ~base_port:7621 (fun svc ->
            (* before any claim: no lease, linearizable reads bounce *)
            (match Service.read_index svc ~node:0 ~key:"k" with
            | Service.Not_ready -> ()
            | Service.Value _ -> Alcotest.fail "served without a lease");
            Service.start svc;
            let acked = ref false in
            Service.submit svc ~node:0 ~session:1 ~seq:1
              ~cmd:(Kv.set_cmd ~key:"k" ~value:"v") (fun _ _ -> acked := true);
            Alcotest.(check bool) "write acked by the leader" true
              (await (fun () -> !acked));
            (* the claim must apply before the first lease read; await
               absorbs it *)
            let lin_read () =
              match Service.read_index svc ~node:0 ~key:"k" with
              | Service.Value v -> v = "v"
              | Service.Not_ready -> false
            in
            Alcotest.(check bool) "lease read sees the write" true
              (await lin_read);
            (* a non-leader never serves read-index reads *)
            (match Service.read_index svc ~node:1 ~key:"k" with
            | Service.Not_ready -> ()
            | Service.Value _ -> Alcotest.fail "non-leader served a lease read");
            (* stale reads serve locally everywhere once caught up *)
            let stale_all () =
              List.for_all
                (fun i ->
                  match Service.read_stale svc ~node:i ~key:"k" with
                  | Service.Value v -> v = "v"
                  | Service.Not_ready -> false)
                [ 0; 1; 2 ]
            in
            Alcotest.(check bool) "stale reads" true (await stale_all)));
    slow_test "live: a new cluster serves lease reads once its claim applies"
      (fun () ->
        (* no node ever held a lease, so there is nothing to wait out: a
           2-s window must not delay the first lease by 2 s *)
        let cfg =
          {
            Service.default_config with
            read_mode = Service.Read_index;
            lease_ms = 2000.;
          }
        in
        with_service ~cfg ~base_port:7651 (fun svc ->
            let t0 = Unix.gettimeofday () in
            Service.start svc;
            let applied = ref None in
            let held = ref None in
            while !held = None && Unix.gettimeofday () -. t0 < 1.0 do
              let now = Unix.gettimeofday () in
              if !applied = None && Service.applied svc ~node:0 > 0 then
                applied := Some now;
              if Service.holds_lease svc ~node:0 ~group:0 then held := Some now;
              Thread.delay 0.0005
            done;
            match (!applied, !held) with
            | Some a, Some h ->
              Printf.printf "start -> claim applied %.1f ms -> lease held %.1f ms\n"
                ((a -. t0) *. 1e3) ((h -. a) *. 1e3)
            | _ -> Alcotest.fail "node 0 held no lease within 1 s of start"));
    slow_test "live: failover waits out the dead holder's last renewal"
      (fun () ->
        let cfg =
          {
            Service.default_config with
            read_mode = Service.Read_index;
            lease_ms = 1000.;
          }
        in
        with_service ~cfg ~base_port:7661 (fun svc ->
            let rt = Service.runtime svc in
            Service.start svc;
            Alcotest.(check bool) "node 0 holds" true
              (await (fun () -> Service.holds_lease svc ~node:0 ~group:0));
            (* let renewals flow, so node 1 has applied some *)
            Thread.delay 0.6;
            Abcast_live.Runtime.crash rt 0;
            let killed = Unix.gettimeofday () in
            Service.claim svc ~node:1;
            let rec first_hold () =
              let now = Unix.gettimeofday () in
              if Service.holds_lease svc ~node:1 ~group:0 then Some (now -. killed)
              else if now -. killed > 5. then None
              else (
                Thread.delay 0.001;
                first_hold ())
            in
            match first_hold () with
            | None -> Alcotest.fail "node 1 held no lease within 5 s"
            | Some dt ->
              Printf.printf "kill -> node 1 holds the lease: %.0f ms\n" (dt *. 1e3);
              (* the dead holder's last renewal went out at most a quarter
                 window before the kill; its lease can live until then *)
              if dt < 0.7 then
                Alcotest.failf "node 1 held the lease %.0f ms after the kill"
                  (dt *. 1e3)));
    slow_test "live: handover to a node while the old holder runs" (fun () ->
        let cfg =
          {
            Service.default_config with
            read_mode = Service.Read_index;
            lease_ms = 300.;
          }
        in
        with_service ~cfg ~base_port:7671 (fun svc ->
            Service.start svc;
            Alcotest.(check bool) "node 0 holds" true
              (await (fun () -> Service.holds_lease svc ~node:0 ~group:0));
            Service.claim svc ~node:1;
            let t0 = Unix.gettimeofday () in
            let both = ref 0 and moved = ref false in
            while Unix.gettimeofday () -. t0 < 1.5 do
              let h0 = Service.holds_lease svc ~node:0 ~group:0 in
              let h1 = Service.holds_lease svc ~node:1 ~group:0 in
              if h0 && h1 then both := !both + 1;
              if h1 then moved := true;
              Thread.delay 0.0005
            done;
            Alcotest.(check int) "polls with two holders" 0 !both;
            Alcotest.(check bool) "node 1 took the lease" true !moved));
    slow_test "live: per-class request histograms reach the Prometheus dump"
      (fun () ->
        with_service ~base_port:7641 (fun svc ->
            (* the loadgen path observes into the per-(class, group)
               histograms; direct observations pin the label rendering
               without depending on live timing *)
            Service.observe_latency svc ~cls:"write" ~group:0 1234.0;
            Service.observe_latency svc ~cls:"lin" ~group:0 5.0;
            Service.observe_latency svc ~cls:"stale" ~group:0 3.0;
            let body =
              Abcast_live.Runtime.prometheus (Service.runtime svc)
            in
            List.iter
              (fun needle ->
                Alcotest.(check bool) ("contains " ^ needle) true
                  (Astring.String.is_infix ~affix:needle body))
              [
                "abcast_service_request_us_bucket";
                "abcast_service_request_us_sum";
                "abcast_service_request_us_count";
                {|class="write"|};
                {|class="lin"|};
                {|class="stale"|};
                {|group="0"|};
                {|le="+Inf"|};
              ]));
    slow_test "live: loadgen exactly-once audit on a healthy cluster"
      (fun () ->
        with_service ~base_port:7631 (fun svc ->
            Service.start svc;
            let report =
              Loadgen.run svc
                {
                  Loadgen.clients = 20;
                  rate = 150.;
                  duration = 1.0;
                  write_pct = 60;
                  lin_pct = 20;
                  timeout = 0.5;
                  seed = 3;
                }
            in
            Alcotest.(check bool) "completed some ops" true (report.completed > 0);
            Alcotest.(check int) "nothing failed" 0 report.failed;
            (* non-convergence is a violation line of the audit too *)
            Alcotest.(check (list string)) "converged, exactly-once" []
              (Loadgen.audit svc report)));
  ]

let suite =
  ( "service",
    unit_tests
    @ [ QCheck_alcotest.to_alcotest lease_overlap_prop ]
    @ sim_tests @ live_tests )
