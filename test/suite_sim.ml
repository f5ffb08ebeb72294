(* Unit tests for abcast.sim: Storage, Metrics, Net, Trace, Engine,
   Faults. The engine tests pin down the crash-recovery semantics that the
   protocol correctness depends on (volatile timers, lost input buffers,
   durable storage, incarnation guards). *)

open Helpers
module Faults = Abcast_sim.Faults
module Histogram = Abcast_util.Histogram

let mk_store () =
  let metrics = Metrics.create () in
  (Storage.create ~metrics ~node:0 (), metrics)

let storage_tests =
  [
    test "write/read roundtrip" (fun () ->
        let s, _ = mk_store () in
        Storage.write s ~layer:"x" ~key:"a" "hello";
        Alcotest.(check (option string)) "read" (Some "hello") (Storage.read s "a"));
    test "missing key" (fun () ->
        let s, _ = mk_store () in
        Alcotest.(check (option string)) "read" None (Storage.read s "nope");
        Alcotest.(check bool) "mem" false (Storage.mem s "nope"));
    test "overwrite replaces" (fun () ->
        let s, _ = mk_store () in
        Storage.write s ~layer:"x" ~key:"a" "1";
        Storage.write s ~layer:"x" ~key:"a" "2";
        Alcotest.(check (option string)) "read" (Some "2") (Storage.read s "a"));
    test "delete removes and counts" (fun () ->
        let s, m = mk_store () in
        Storage.write s ~layer:"x" ~key:"a" "1";
        Storage.delete s ~layer:"x" "a";
        Alcotest.(check bool) "gone" false (Storage.mem s "a");
        Alcotest.(check int) "two ops" 2 (Metrics.get m ~node:0 "log_ops.x"));
    test "delete_range drops [lo, hi) as one op; an empty range is free"
      (fun () ->
        let s, m = mk_store () in
        List.iter
          (fun k -> Storage.write s ~layer:"x" ~key:k "v")
          [ "a/1"; "a/2"; "a/3"; "b/1" ];
        Storage.delete_range s ~layer:"t" ~lo:"a/1" ~hi:"a/3";
        Alcotest.(check (list string)) "left" [ "a/3"; "b/1" ]
          (Storage.keys_with_prefix s "");
        Alcotest.(check int) "one op" 1 (Metrics.get m ~node:0 "log_ops.t");
        Storage.delete_range s ~layer:"t" ~lo:"a/0" ~hi:"a/3";
        Alcotest.(check int) "empty range: no op" 1
          (Metrics.get m ~node:0 "log_ops.t");
        let g = Storage.scoped s ~prefix:"g1/" in
        Storage.write g ~layer:"x" ~key:"a/1" "v";
        Storage.delete_range g ~layer:"t" ~lo:"" ~hi:"z";
        Alcotest.(check (list string)) "a scope confines the range"
          [ "a/3"; "b/1" ] (Storage.keys_with_prefix s ""));
    test "delete of absent key is free" (fun () ->
        let s, m = mk_store () in
        Storage.delete s ~layer:"x" "a";
        Alcotest.(check int) "no op" 0 (Metrics.get m ~node:0 "log_ops.x"));
    test "ops and bytes accounted per layer" (fun () ->
        let s, m = mk_store () in
        Storage.write s ~layer:"cons" ~key:"a" "12345";
        Storage.write s ~layer:"ab" ~key:"b" "123";
        Alcotest.(check int) "cons ops" 1 (Metrics.get m ~node:0 "log_ops.cons");
        Alcotest.(check int) "cons bytes" 5 (Metrics.get m ~node:0 "log_bytes.cons");
        Alcotest.(check int) "ab bytes" 3 (Metrics.get m ~node:0 "log_bytes.ab"));
    test "keys_with_prefix sorted and filtered" (fun () ->
        let s, _ = mk_store () in
        List.iter
          (fun k -> Storage.write s ~layer:"x" ~key:k "v")
          [ "b/2"; "a/1"; "b/1"; "c" ];
        Alcotest.(check (list string)) "b keys" [ "b/1"; "b/2" ]
          (Storage.keys_with_prefix s "b/"));
    test "retained bytes and keys track live state" (fun () ->
        let s, _ = mk_store () in
        Storage.write s ~layer:"x" ~key:"a" "12345";
        Storage.write s ~layer:"x" ~key:"b" "123";
        Alcotest.(check int) "bytes" 8 (Storage.retained_bytes s);
        Alcotest.(check int) "keys" 2 (Storage.retained_keys s);
        Storage.delete s ~layer:"x" "a";
        Alcotest.(check int) "bytes after delete" 3 (Storage.retained_bytes s));
    test "slot roundtrip" (fun () ->
        let s, _ = mk_store () in
        let module Wire = Abcast_util.Wire in
        let codec =
          ( Wire.to_string (fun w (i, str) ->
                Wire.write_varint w i;
                Wire.write_string w str),
            Wire.of_string_opt (fun r ->
                let i = Wire.read_varint r in
                (i, Wire.read_string r)) )
        in
        let slot = Storage.Slot.make ~codec s ~layer:"x" ~key:"pair" in
        Alcotest.(check bool) "empty" true (Storage.Slot.get slot = None);
        Storage.Slot.set slot (42, "hello");
        Alcotest.(check (option (pair int string)))
          "value" (Some (42, "hello")) (Storage.Slot.get slot);
        Storage.Slot.clear slot;
        Alcotest.(check bool) "cleared" true (Storage.Slot.get slot = None));
    test "wipe clears everything" (fun () ->
        let s, _ = mk_store () in
        Storage.write s ~layer:"x" ~key:"a" "1";
        Storage.wipe s;
        Alcotest.(check int) "keys" 0 (Storage.retained_keys s));
  ]

let storage_file_tests =
  [
    test "file backing: contents survive re-opening" (fun () ->
        with_temp_dir "abcast-storage" @@ fun dir ->
        let metrics = Metrics.create () in
        let s1 = Storage.create ~dir ~metrics ~node:0 () in
        Storage.write s1 ~layer:"x" ~key:"cons/000000001/proposal" "hello";
        Storage.write s1 ~layer:"x" ~key:"weird key /%\\0" "bytes";
        (* a fresh handle on the same directory sees everything the
           first one flushed *)
        Storage.flush s1;
        let s2 = Storage.create ~dir ~metrics ~node:0 () in
        Alcotest.(check (option string)) "key 1" (Some "hello")
          (Storage.read s2 "cons/000000001/proposal");
        Alcotest.(check (option string)) "odd key" (Some "bytes")
          (Storage.read s2 "weird key /%\\0");
        Alcotest.(check int) "two keys" 2 (Storage.retained_keys s2));
    test "file backing: delete removes the file" (fun () ->
        with_temp_dir "abcast-storage" @@ fun dir ->
        let metrics = Metrics.create () in
        let s1 = Storage.create ~dir ~metrics ~node:0 () in
        Storage.write s1 ~layer:"x" ~key:"a" "1";
        Storage.delete s1 ~layer:"x" "a";
        Storage.flush s1;
        let s2 = Storage.create ~dir ~metrics ~node:0 () in
        Alcotest.(check (option string)) "gone" None (Storage.read s2 "a"));
    test "file backing: overwrite persists the newest value" (fun () ->
        with_temp_dir "abcast-storage" @@ fun dir ->
        let metrics = Metrics.create () in
        let s1 = Storage.create ~dir ~metrics ~node:0 () in
        Storage.write s1 ~layer:"x" ~key:"a" "old";
        Storage.write s1 ~layer:"x" ~key:"a" "new";
        Storage.flush s1;
        let s2 = Storage.create ~dir ~metrics ~node:0 () in
        Alcotest.(check (option string)) "new" (Some "new") (Storage.read s2 "a"));
    test "file backing: wipe clears the directory" (fun () ->
        with_temp_dir "abcast-storage" @@ fun dir ->
        let metrics = Metrics.create () in
        let s1 = Storage.create ~dir ~metrics ~node:0 () in
        Storage.write s1 ~layer:"x" ~key:"a" "1";
        Storage.wipe s1;
        Storage.flush s1;
        let s2 = Storage.create ~dir ~metrics ~node:0 () in
        Alcotest.(check int) "empty" 0 (Storage.retained_keys s2));
    test "file backing: binary values roundtrip" (fun () ->
        with_temp_dir "abcast-storage" @@ fun dir ->
        let metrics = Metrics.create () in
        let s1 = Storage.create ~dir ~metrics ~node:0 () in
        let blob = Storage.encode (42, [ "x"; "y" ], 3.14) in
        Storage.write s1 ~layer:"x" ~key:"blob" blob;
        Storage.flush s1;
        let s2 = Storage.create ~dir ~metrics ~node:0 () in
        let (a, b, c) : int * string list * float =
          Storage.decode (Option.get (Storage.read s2 "blob"))
        in
        Alcotest.(check int) "int" 42 a;
        Alcotest.(check (list string)) "list" [ "x"; "y" ] b;
        Alcotest.(check (float 1e-9)) "float" 3.14 c);
  ]

let metrics_tests =
  [
    test "incr/add/get" (fun () ->
        let m = Metrics.create () in
        Metrics.incr m ~node:1 "c";
        Metrics.add m ~node:1 "c" 4;
        Alcotest.(check int) "value" 5 (Metrics.get m ~node:1 "c");
        Alcotest.(check int) "other node" 0 (Metrics.get m ~node:2 "c"));
    test "sum across nodes" (fun () ->
        let m = Metrics.create () in
        Metrics.add m ~node:0 "c" 1;
        Metrics.add m ~node:1 "c" 2;
        Metrics.add m ~node:(-1) "c" 4;
        Alcotest.(check int) "sum" 7 (Metrics.sum m "c"));
    test "sum_prefix respects dotted boundaries" (fun () ->
        let m = Metrics.create () in
        Metrics.add m ~node:0 "log_ops.a" 1;
        Metrics.add m ~node:0 "log_ops.b" 2;
        Metrics.add m ~node:0 "log_opsx" 100;
        Metrics.add m ~node:0 "log_ops" 10;
        Alcotest.(check int) "prefix" 13 (Metrics.sum_prefix m "log_ops"));
    test "observe/mean/percentile" (fun () ->
        let m = Metrics.create () in
        List.iter (Metrics.observe m ~node:0 "lat") [ 1.0; 2.0; 3.0; 4.0 ];
        Alcotest.(check (float 1e-6)) "mean" 2.5 (Metrics.mean m "lat");
        Alcotest.(check (float 1e-6)) "p0" 1.0 (Metrics.percentile m "lat" 0.0);
        Alcotest.(check (float 1e-6)) "p100" 4.0 (Metrics.percentile m "lat" 100.0);
        (* Interior percentiles come from histogram buckets: within the
           bucket error of the nearest-rank sample (2.0, rank 2 of 4). *)
        let p50 = Metrics.percentile m "lat" 50.0 in
        Alcotest.(check bool) "p50 within bucket error" true
          (Float.abs (p50 -. 2.0) /. 2.0 <= Histogram.bucket_error);
        Alcotest.(check int) "count" 4 (Metrics.count_samples m "lat"));
    test "empty series" (fun () ->
        let m = Metrics.create () in
        Alcotest.(check bool) "mean nan" true (Float.is_nan (Metrics.mean m "x"));
        Alcotest.(check int) "count" 0 (Metrics.count_samples m "x"));
    test "reset clears" (fun () ->
        let m = Metrics.create () in
        Metrics.incr m ~node:0 "c";
        Metrics.observe m ~node:0 "s" 1.0;
        Metrics.reset m;
        Alcotest.(check int) "counter" 0 (Metrics.get m ~node:0 "c");
        Alcotest.(check int) "samples" 0 (Metrics.count_samples m "s"));
    test "handle shares storage with the named counter" (fun () ->
        let m = Metrics.create () in
        let h = Metrics.handle m ~node:3 "hot" in
        Metrics.hincr h;
        Metrics.hadd h 4;
        Alcotest.(check int) "get sees handle bumps" 5 (Metrics.get m ~node:3 "hot");
        Metrics.incr m ~node:3 "hot";
        Alcotest.(check int) "handle sees named bumps" 6 (Metrics.hget h);
        Alcotest.(check int) "sum" 6 (Metrics.sum m "hot"));
    test "handle resolved twice hits the same counter" (fun () ->
        let m = Metrics.create () in
        let h1 = Metrics.handle m ~node:0 "c" in
        let h2 = Metrics.handle m ~node:0 "c" in
        Metrics.hincr h1;
        Metrics.hincr h2;
        Alcotest.(check int) "both bumps visible" 2 (Metrics.get m ~node:0 "c");
        Alcotest.(check bool) "same cell" true (h1 == h2));
    test "reset keeps live handles attached" (fun () ->
        (* Regression: reset used to Hashtbl.reset the table, detaching
           outstanding handles so their counts silently vanished. Reset
           now zeroes in place — a handle resolved before the reset keeps
           feeding the visible counter. *)
        let m = Metrics.create () in
        let h = Metrics.handle m ~node:0 "c" in
        Metrics.hincr h;
        Metrics.hincr h;
        Metrics.reset m;
        Alcotest.(check int) "zeroed" 0 (Metrics.get m ~node:0 "c");
        Alcotest.(check int) "handle view zeroed" 0 (Metrics.hget h);
        Metrics.hincr h;
        Alcotest.(check int) "post-reset bump visible" 1 (Metrics.get m ~node:0 "c");
        Alcotest.(check bool) "same cell" true (h == Metrics.handle m ~node:0 "c"));
    test "reset keeps live histograms attached" (fun () ->
        let m = Metrics.create () in
        let h = Metrics.hist m ~node:0 "lat" in
        Histogram.add h 10.0;
        Metrics.reset m;
        Alcotest.(check int) "cleared" 0 (Histogram.count h);
        Histogram.add h 20.0;
        match Metrics.histogram m "lat" with
        | None -> Alcotest.fail "series vanished on reset"
        | Some merged ->
          Alcotest.(check int) "post-reset sample visible" 1
            (Histogram.count merged));
    test "metrics footprint does not grow with delivered messages" (fun () ->
        (* A series keeps its histogram and no samples, so once every
           series has seen its first sample the registry stops growing:
           4k more deliveries must cost less than one histogram. *)
        let cluster =
          Cluster.create (Factory.make Protocol.throughput) ~seed:11 ~n:3 ()
        in
        let sent = ref 0 in
        let footprint_after count =
          while !sent < count do
            let j = !sent in
            Cluster.at cluster (Cluster.now cluster + 1 + (j mod 50) * 20)
              (fun () -> ignore (Cluster.broadcast cluster ~node:(j mod 3) "m"));
            incr sent
          done;
          Alcotest.(check bool) "delivered" true
            (Cluster.run_until cluster ~until:(Cluster.now cluster + 60_000_000)
               ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
               ());
          Obj.reachable_words (Obj.repr (Cluster.metrics cluster))
        in
        let at_1k = footprint_after 1_000 in
        let at_5k = footprint_after 5_000 in
        let one_hist =
          let h = Histogram.create () in
          Histogram.add h 1.0;
          Obj.reachable_words (Obj.repr h)
        in
        if at_5k - at_1k >= one_hist then
          Alcotest.failf "metrics grew by %d words from 1k to 5k deliveries (one \
                          histogram: %d)" (at_5k - at_1k) one_hist);
  ]

let net_tests =
  [
    test "delays within bounds" (fun () ->
        let net = Net.create ~delay_min:10 ~delay_max:20 ~heavy_tail:0.0 () in
        let rng = Rng.create 1 in
        for _ = 1 to 500 do
          match Net.transmit net ~rng ~src:0 ~dst:1 with
          | Net.Deliver [ d ] ->
            Alcotest.(check bool) "bounds" true (d >= 10 && d <= 20)
          | _ -> Alcotest.fail "expected single delivery"
        done);
    test "loss=1 drops all" (fun () ->
        let net = Net.create ~loss:1.0 () in
        let rng = Rng.create 1 in
        for _ = 1 to 50 do
          Alcotest.(check bool) "drop" true
            (Net.transmit net ~rng ~src:0 ~dst:1 = Net.Drop)
        done);
    test "duplication produces two copies sometimes" (fun () ->
        let net = Net.create ~dup:0.5 ~heavy_tail:0.0 () in
        let rng = Rng.create 1 in
        let dups = ref 0 in
        for _ = 1 to 200 do
          match Net.transmit net ~rng ~src:0 ~dst:1 with
          | Net.Deliver [ _; _ ] -> incr dups
          | Net.Deliver [ _ ] -> ()
          | _ -> Alcotest.fail "unexpected"
        done;
        Alcotest.(check bool) "some dups" true (!dups > 50));
    test "self hand-off is reliable and fast" (fun () ->
        let net = Net.create ~loss:1.0 () in
        let rng = Rng.create 1 in
        Alcotest.(check bool) "self" true
          (Net.transmit net ~rng ~src:2 ~dst:2 = Net.Deliver [ 1 ]));
    test "partition blocks matching links, heal restores" (fun () ->
        let net = Net.create ~heavy_tail:0.0 () in
        let rng = Rng.create 1 in
        Net.partition net (fun ~src ~dst -> src = 0 && dst = 1);
        Alcotest.(check bool) "cut" true (Net.transmit net ~rng ~src:0 ~dst:1 = Net.Drop);
        Alcotest.(check bool) "reverse open" true
          (match Net.transmit net ~rng ~src:1 ~dst:0 with
          | Net.Deliver _ -> true
          | Net.Drop -> false);
        Alcotest.(check bool) "is_partitioned" true (Net.is_partitioned net ~src:0 ~dst:1);
        Net.heal net;
        Alcotest.(check bool) "healed" true
          (match Net.transmit net ~rng ~src:0 ~dst:1 with
          | Net.Deliver _ -> true
          | Net.Drop -> false));
    test "per-link override shapes one direction only" (fun () ->
        let net = Net.create ~delay_min:10 ~delay_max:20 ~heavy_tail:0.0 () in
        Net.set_link net ~src:0 ~dst:1 ~delay_min:500 ~delay_max:600 ();
        let rng = Rng.create 2 in
        for _ = 1 to 100 do
          (match Net.transmit net ~rng ~src:0 ~dst:1 with
          | Net.Deliver [ d ] -> Alcotest.(check bool) "slow" true (d >= 500)
          | _ -> Alcotest.fail "unexpected");
          match Net.transmit net ~rng ~src:1 ~dst:0 with
          | Net.Deliver [ d ] -> Alcotest.(check bool) "fast" true (d <= 20)
          | _ -> Alcotest.fail "unexpected"
        done);
    test "per-link loss override" (fun () ->
        let net = Net.create ~heavy_tail:0.0 () in
        Net.set_link net ~src:2 ~dst:0 ~loss:1.0 ();
        let rng = Rng.create 3 in
        for _ = 1 to 50 do
          Alcotest.(check bool) "lossy link" true
            (Net.transmit net ~rng ~src:2 ~dst:0 = Net.Drop)
        done;
        Net.reset_links net;
        Alcotest.(check bool) "reset restores" true
          (match Net.transmit net ~rng ~src:2 ~dst:0 with
          | Net.Deliver _ -> true
          | Net.Drop -> false));
    test "bad delay bounds rejected" (fun () ->
        Alcotest.check_raises "inverted" (Invalid_argument "Net.create: bad delay bounds")
          (fun () -> ignore (Net.create ~delay_min:10 ~delay_max:5 ())));
  ]

(* A trivial echo protocol to exercise the engine. *)
let echo_behavior log (io : string Engine.io) ~src:_ msg =
  log := (io.self, io.now (), msg) :: !log

let engine_tests =
  [
    test "actions run in time order with FIFO ties" (fun () ->
        let eng : unit Engine.t = Engine.create ~seed:1 ~n:1 () in
        let log = ref [] in
        Engine.at eng 100 (fun () -> log := 2 :: !log);
        Engine.at eng 50 (fun () -> log := 1 :: !log);
        Engine.at eng 100 (fun () -> log := 3 :: !log);
        Engine.run eng;
        Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log));
    test "run ~until stops and advances clock" (fun () ->
        let eng : unit Engine.t = Engine.create ~seed:1 ~n:1 () in
        let fired = ref false in
        Engine.at eng 10_000 (fun () -> fired := true);
        Engine.run eng ~until:5_000;
        Alcotest.(check bool) "not yet" false !fired;
        Alcotest.(check int) "clock" 5_000 (Engine.now eng);
        Engine.run eng ~until:20_000;
        Alcotest.(check bool) "fired" true !fired);
    test "messages are delivered to up nodes" (fun () ->
        let eng = Engine.create ~seed:1 ~n:2 () in
        let log = ref [] in
        for i = 0 to 1 do
          Engine.set_behavior eng i (echo_behavior log)
        done;
        Engine.start_all eng;
        Engine.set_behavior eng 0 (fun io ->
            io.send 1 "hi";
            echo_behavior log io);
        (* restart node 0 so the new behavior (which sends) runs *)
        Engine.crash eng 0;
        Engine.recover eng 0;
        Engine.run eng ~until:1_000_000;
        Alcotest.(check bool) "received" true
          (List.exists (fun (n, _, m) -> n = 1 && m = "hi") !log));
    test "messages to down nodes are lost" (fun () ->
        let eng = Engine.create ~seed:1 ~n:2 () in
        let log = ref [] in
        Engine.set_behavior eng 1 (echo_behavior log);
        Engine.set_behavior eng 0 (fun io ->
            io.send 1 "lost";
            echo_behavior log io);
        Engine.start eng 0;
        (* node 1 never started: delivery dropped, counted *)
        Engine.run eng ~until:1_000_000;
        Alcotest.(check (list (triple int int string))) "empty" [] !log;
        Alcotest.(check bool) "counted" true
          (Metrics.get (Engine.metrics eng) ~node:1 "msgs_lost_down" >= 1));
    test "timers are volatile: crash cancels them" (fun () ->
        let eng : unit Engine.t = Engine.create ~seed:1 ~n:1 () in
        let fired = ref false in
        Engine.set_behavior eng 0 (fun io ~src:_ () -> ignore io);
        Engine.set_behavior eng 0 (fun io ->
            if io.incarnation = 0 then
              ignore (io.after 1_000 (fun () -> fired := true));
            fun ~src:_ () -> ());
        Engine.start eng 0;
        Engine.at eng 500 (fun () -> Engine.crash eng 0);
        Engine.at eng 600 (fun () -> Engine.recover eng 0);
        Engine.run eng ~until:10_000;
        Alcotest.(check bool) "old timer dead" false !fired);
    test "incarnation increments on recovery; storage survives" (fun () ->
        let eng : unit Engine.t = Engine.create ~seed:1 ~n:1 () in
        let incs = ref [] in
        Engine.set_behavior eng 0 (fun io ->
            incs := io.incarnation :: !incs;
            if io.incarnation = 0 then
              Abcast_sim.Storage.write io.store ~layer:"t" ~key:"k" "v"
            else
              Alcotest.(check (option string))
                "durable" (Some "v")
                (Abcast_sim.Storage.read io.store "k");
            fun ~src:_ () -> ());
        Engine.start eng 0;
        Engine.crash eng 0;
        Engine.recover eng 0;
        Alcotest.(check (list int)) "incarnations" [ 1; 0 ] !incs;
        Alcotest.(check int) "engine view" 1 (Engine.incarnation eng 0));
    test "start and recover record one boot per incarnation" (fun () ->
        let fl = Abcast_sim.Flight.create ~cap:16 () in
        let eng : unit Engine.t =
          Engine.create ~seed:1 ~n:1 ~flight:(fun ~node:_ -> fl) ()
        in
        Engine.set_behavior eng 0 (fun _io ~src:_ () -> ());
        Engine.start eng 0;
        Engine.crash eng 0;
        Engine.recover eng 0;
        Engine.start eng 0;
        Engine.crash eng 0;
        Engine.recover eng 0;
        let boots =
          List.filter_map
            (fun (e : Abcast_sim.Flight.event) ->
              if e.e_stage = Abcast_sim.Flight.boot then Some (e.e_boot, e.e_a)
              else None)
            (Abcast_sim.Flight.events fl)
        in
        Alcotest.(check (list (pair int int)))
          "one boot per incarnation" [ (0, 0); (1, 1); (2, 2) ] boots);
    test "start is idempotent while up" (fun () ->
        let eng : unit Engine.t = Engine.create ~seed:1 ~n:1 () in
        let boots = ref 0 in
        Engine.set_behavior eng 0 (fun _io ->
            incr boots;
            fun ~src:_ () -> ());
        Engine.start eng 0;
        Engine.start eng 0;
        Alcotest.(check int) "boots" 1 !boots);
    test "sends from a stale incarnation are suppressed" (fun () ->
        let eng = Engine.create ~seed:1 ~n:2 () in
        let log = ref [] in
        let stale_io = ref None in
        Engine.set_behavior eng 1 (echo_behavior log);
        Engine.set_behavior eng 0 (fun io ->
            if io.incarnation = 0 then stale_io := Some io;
            fun ~src:_ _ -> ());
        Engine.start_all eng;
        Engine.crash eng 0;
        Engine.recover eng 0;
        (match !stale_io with
        | Some (io : string Engine.io) -> io.send 1 "ghost"
        | None -> Alcotest.fail "no io captured");
        Engine.run eng ~until:1_000_000;
        Alcotest.(check bool) "no ghost" true
          (not (List.exists (fun (_, _, m) -> m = "ghost") !log)));
    test "run_until stops when predicate holds" (fun () ->
        let eng : unit Engine.t = Engine.create ~seed:1 ~n:1 () in
        let x = ref 0 in
        for i = 1 to 10 do
          Engine.at eng (i * 100) (fun () -> incr x)
        done;
        let ok = Engine.run_until eng ~pred:(fun () -> !x >= 3) () in
        Alcotest.(check bool) "stopped" true ok;
        Alcotest.(check int) "exactly 3" 3 !x);
    test "max_events bounds the run" (fun () ->
        let eng : unit Engine.t = Engine.create ~seed:1 ~n:1 () in
        let x = ref 0 in
        for i = 1 to 100 do
          Engine.at eng i (fun () -> incr x)
        done;
        Engine.run eng ~max_events:10;
        Alcotest.(check int) "ten" 10 !x);
    test "map_io wraps sends" (fun () ->
        let eng = Engine.create ~seed:1 ~n:2 () in
        let got = ref [] in
        Engine.set_behavior eng 1 (fun _io ~src:_ m -> got := m :: !got);
        Engine.set_behavior eng 0 (fun io ->
            let sub = Engine.map_io (fun i -> `Wrapped i) io in
            sub.send 1 7;
            fun ~src:_ _ -> ());
        Engine.start_all eng;
        Engine.run eng ~until:1_000_000;
        Alcotest.(check bool) "wrapped" true (List.mem (`Wrapped 7) !got));
    test "deterministic runs: same seed, same event count" (fun () ->
        let go seed =
          let eng = Engine.create ~seed ~n:3 () in
          let log = ref [] in
          for i = 0 to 2 do
            Engine.set_behavior eng i (fun io ->
                io.multisend "x";
                echo_behavior log io)
          done;
          Engine.start_all eng;
          Engine.run eng ~until:100_000;
          (Engine.events_processed eng, List.length !log)
        in
        Alcotest.(check (pair int int)) "equal" (go 5) (go 5);
        ignore (go 6));
  ]

let faults_tests =
  [
    test "plan_random needs a good majority" (fun () ->
        let rng = Rng.create 1 in
        Alcotest.check_raises "bad majority"
          (Invalid_argument "Faults.plan_random: need a good majority")
          (fun () ->
            ignore (Faults.plan_random ~rng ~n:4 ~n_bad:2 ~stability:1000 ())));
    test "plan marks the requested number of bad processes" (fun () ->
        let rng = Rng.create 2 in
        let plan = Faults.plan_random ~rng ~n:5 ~n_bad:2 ~stability:10_000 () in
        let bad = Array.to_list plan.good |> List.filter not |> List.length in
        Alcotest.(check int) "bad" 2 bad;
        Alcotest.(check int) "good list" 3 (List.length (Faults.good_nodes plan)));
    test "good processes end up and stay up" (fun () ->
        let rng = Rng.create 3 in
        let plan = Faults.plan_random ~rng ~n:3 ~stability:50_000 () in
        (* final event of each good node, if any, must be a recovery
           strictly before stability *)
        Array.iteri
          (fun node good ->
            if good then
              let evs =
                List.filter (fun (e : Faults.event) -> e.node = node) plan.events
              in
              match List.rev evs with
              | [] -> ()
              | last :: _ ->
                Alcotest.(check bool) "recover" true (last.kind = Faults.Recover);
                Alcotest.(check bool) "before stability" true
                  (last.time < 50_000))
          plan.good);
    test "events are time-sorted" (fun () ->
        let rng = Rng.create 4 in
        let plan = Faults.plan_random ~rng ~n:5 ~n_bad:1 ~stability:20_000 () in
        let times = List.map (fun (e : Faults.event) -> e.time) plan.events in
        Alcotest.(check (list int)) "sorted" (List.sort compare times) times);
    test "apply schedules crashes and recoveries" (fun () ->
        let eng : unit Engine.t = Engine.create ~seed:1 ~n:2 () in
        for i = 0 to 1 do
          Engine.set_behavior eng i (fun _io ~src:_ () -> ())
        done;
        Engine.start_all eng;
        Faults.down_between eng ~node:1 ~from_:100 ~until:200;
        Engine.run eng ~until:150;
        Alcotest.(check bool) "down" false (Engine.is_up eng 1);
        Engine.run eng ~until:250;
        Alcotest.(check bool) "up" true (Engine.is_up eng 1));
  ]

let engine_bytes_tests =
  [
    test "byte accounting counts serialized sizes" (fun () ->
        let eng =
          Engine.create ~seed:1 ~n:2 ~msg_size:String.length ()
        in
        Engine.set_behavior eng 1 (fun _io ~src:_ (_ : string) -> ());
        Engine.set_behavior eng 0 (fun io ->
            io.send 1 "12345";
            io.send 1 "12";
            fun ~src:_ _ -> ());
        Engine.start_all eng;
        Engine.run eng ~until:1_000_000;
        Alcotest.(check int) "bytes" 7
          (Metrics.get (Engine.metrics eng) ~node:0 "net_bytes"));
  ]

(* A stack that only arms timers: [broadcast "cancel"] arms a 20-ms
   timer and cancels it at once, any other payload arms one and keeps
   it. No frame, no other timer, so a node's loop passes are the
   mailbox's, the timers' and the 50-ms select cap's. *)
module Timer_stack = struct
  let name = "timer-probe"

  type msg = unit

  let msg_size () = 0
  let write_msg _ () = ()
  let read_msg _ = ()
  let encode_msg () = ""
  let decode_msg _ = Some ()
  let shards = 1
  let msg_group () = 0

  type t = msg Engine.io

  let create io ~deliver:_ = io
  let handler _ ~src:_ () = ()

  let broadcast io ?on_agreed:_ ?group:_ data =
    let timer = io.Engine.after 20_000 ignore in
    if data = "cancel" then Engine.Timer.cancel timer;
    { Payload.origin = io.self; boot = 0; seq = 0 }

  let broadcast_blocks = false
  let round _ _ = 0
  let delivered_count _ _ = 0
  let delivered_tail _ _ = []
  let delivery_vc _ _ = Abcast_core.Vclock.empty
  let unordered_count _ _ = 0
end

let timer_tests =
  [
    test "timer: a cancelled timer never runs, yet is dispatched on time"
      (fun () ->
        let run ~cancel =
          let eng : unit Engine.t = Engine.create ~seed:1 ~n:1 () in
          let ran = ref false in
          Engine.set_behavior eng 0 (fun io ->
              let tm = io.after 1_000 (fun () -> ran := true) in
              let stop () = if cancel then Engine.Timer.cancel tm in
              ignore (io.after 500 stop);
              fun ~src:_ () -> ());
          Engine.start eng 0;
          Engine.run eng;
          (!ran, Engine.events_processed eng, Engine.now eng)
        in
        let ran, events, now = run ~cancel:true in
        let ran', events', now' = run ~cancel:false in
        Alcotest.(check bool) "cancelled thunk never ran" false ran;
        Alcotest.(check bool) "control ran" true ran';
        Alcotest.(check int) "events processed" events' events;
        Alcotest.(check int) "clock reached the due time" now' now;
        Alcotest.(check int) "due time" 1_000 now);
    slow_test "timer: a cancelled 20-ms timer wakes no live loop pass"
      (fun () ->
        match
          Abcast_live.Runtime.create (module Timer_stack) ~n:3 ~base_port:7681 ()
        with
        | exception Unix.Unix_error (err, _, _) ->
          Printf.printf "skipping live test: %s\n" (Unix.error_message err)
        | live ->
          Fun.protect ~finally:(fun () -> Abcast_live.Runtime.shutdown live)
          @@ fun () ->
          let counters () =
            let c = Abcast_live.Runtime.node_counters live 0 in
            let get name = Option.value ~default:0 (List.assoc_opt name c) in
            (get "loop_passes", get "timer_fires")
          in
          (* a counter read is a mailbox call, one pass: a window
             read-arm-wait-read costs the arm's pass and the last read's,
             plus one per timer that woke the loop in between *)
          let window data =
            let p0, f0 = counters () in
            Abcast_live.Runtime.broadcast live ~node:0 data;
            Thread.delay 0.035;
            let p1, f1 = counters () in
            (p1 - p0, f1 - f0)
          in
          let passes, fires = window "cancel" in
          Alcotest.(check int) "cancelled: no fire" 0 fires;
          Alcotest.(check int) "cancelled: only the arm's pass" 2 passes;
          let passes', fires' = window "keep" in
          Alcotest.(check int) "kept: it fired" 1 fires';
          Alcotest.(check int) "kept: one more pass" 3 passes');
    test "timer: a decided broadcast leaves no Ring frame and no live flush"
      (fun () ->
        (* 20-µs links: the leader decides its first instance well inside
           the ring's 400-µs coalescing delay, so the flush that would
           carry the payload has nothing left to do *)
        let module P = (val Factory.make Protocol.throughput) in
        let n = 3 in
        let net = Net.create ~delay_min:20 ~delay_max:20 ~heavy_tail:0.0 () in
        let eng = Engine.create ~seed:1 ~n ~net () in
        let flushes = ref [] and nodes = Array.make n None in
        for i = 0 to n - 1 do
          Engine.set_behavior eng i (fun io ->
              let after delay f =
                let tm = io.Engine.after delay f in
                if delay = 400 then flushes := tm :: !flushes;
                tm
              in
              let p =
                P.create { io with after } ~deliver:(fun ~group:_ _ -> ())
              in
              nodes.(i) <- Some p;
              P.handler p)
        done;
        Engine.start_all eng;
        let node i = Option.get nodes.(i) in
        Engine.run eng ~until:30_000;
        let leader = 0 in
        ignore (P.broadcast (node leader) "m");
        let armed = List.length !flushes in
        let decided =
          Engine.run_until eng ~until:30_300
            ~pred:(fun () -> P.delivered_count (node leader) 0 = 1)
            ()
        in
        Alcotest.(check bool) "decided before the flush was due" true decided;
        Alcotest.(check bool) "the broadcast armed a flush" true (armed > 0);
        Alcotest.(check int) "no live flush timer" 0
          (List.length (List.filter Engine.Timer.pending !flushes));
        Engine.run eng ~until:60_000;
        for i = 0 to n - 1 do
          Alcotest.(check int) "delivered" 1 (P.delivered_count (node i) 0)
        done;
        Alcotest.(check int) "no Ring frame" 0
          (Metrics.sum_prefix (Engine.metrics eng) "rx.ring"));
  ]

let suite =
  ( "sim",
    storage_tests @ storage_file_tests @ metrics_tests @ net_tests
    @ engine_tests @ engine_bytes_tests @ faults_tests @ timer_tests )
