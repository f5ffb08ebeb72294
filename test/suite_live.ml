(* Tests of the live runtime: the same protocol code over real threads,
   UDP sockets and file-backed storage. These tests run in real time (a
   few hundred ms each) and are skipped when the environment forbids
   sockets. *)

open Helpers
module Live = Abcast_live.Runtime

let basic = Factory.make Protocol.paper_basic

let with_live ?dir ~base_port stack f =
  match Live.create stack ~n:3 ~base_port ?dir () with
  | exception Unix.Unix_error (err, _, _) ->
    Alcotest.skip () |> ignore;
    Printf.printf "skipping live test: %s\n" (Unix.error_message err)
  | live -> Fun.protect ~finally:(fun () -> Live.shutdown live) (fun () -> f live)

(* Wait until the predicate holds, in real time. *)
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

let tests =
  [
    slow_test "live: total order over real UDP" (fun () ->
        with_live ~base_port:7411 basic (fun live ->
            for j = 0 to 4 do
              Live.broadcast live ~node:(j mod 3) (Printf.sprintf "m%d" j)
            done;
            let done_ () =
              List.for_all (fun i -> Live.delivered_count live i >= 5) [ 0; 1; 2 ]
            in
            Alcotest.(check bool) "all delivered" true (await done_);
            let seq i = Live.delivered_data live i in
            Alcotest.(check (list string)) "0=1" (seq 0) (seq 1);
            Alcotest.(check (list string)) "1=2" (seq 1) (seq 2);
            Alcotest.(check int) "five messages" 5 (List.length (seq 0))));
    slow_test "live: majority continues while a process is down" (fun () ->
        with_live ~base_port:7421 basic (fun live ->
            Live.crash live 2;
            Alcotest.(check bool) "down" false (Live.is_up live 2);
            for j = 0 to 3 do
              Live.broadcast live ~node:(j mod 2) (Printf.sprintf "x%d" j)
            done;
            let done_ () =
              List.for_all (fun i -> Live.delivered_count live i >= 4) [ 0; 1 ]
            in
            Alcotest.(check bool) "survivors deliver" true (await done_)));
    slow_test "live: real crash-recovery from files" (fun () ->
        with_temp_dir "abcast-live" @@ fun dir ->
        with_live ~dir ~base_port:7431 basic (fun live ->
            for j = 0 to 3 do
              Live.broadcast live ~node:(j mod 3) (Printf.sprintf "a%d" j)
            done;
            let phase1 () =
              List.for_all
                (fun i -> Live.delivered_count live i >= 4)
                [ 0; 1; 2 ]
            in
            Alcotest.(check bool) "phase1" true (await phase1);
            (* kill process 2 for real; keep broadcasting; bring it back *)
            Live.crash live 2;
            for j = 4 to 7 do
              Live.broadcast live ~node:(j mod 2) (Printf.sprintf "a%d" j)
            done;
            let phase2 () =
              List.for_all (fun i -> Live.delivered_count live i >= 8) [ 0; 1 ]
            in
            Alcotest.(check bool) "phase2" true (await phase2);
            Live.recover live 2;
            let phase3 () = Live.delivered_count live 2 >= 8 in
            Alcotest.(check bool) "recovered process caught up" true
              (await phase3);
            Alcotest.(check (list string))
              "same order after real recovery"
              (Live.delivered_data live 0)
              (Live.delivered_data live 2)));
    slow_test "live: alternative protocol with state transfer" (fun () ->
        with_temp_dir "abcast-live" @@ fun dir ->
        let stack =
          Factory.make
            {
              Protocol.paper_alternative with
              checkpoint_period = Some 100_000;
              delta = Some 2;
              early_return = true;
            }
        in
        with_live ~dir ~base_port:7441 stack (fun live ->
            Live.crash live 2;
            for j = 0 to 9 do
              Live.broadcast live ~node:(j mod 2) (Printf.sprintf "s%d" j);
              Thread.delay 0.02
            done;
            let phase1 () =
              List.for_all (fun i -> Live.delivered_count live i >= 10) [ 0; 1 ]
            in
            Alcotest.(check bool) "phase1" true (await phase1);
            Live.recover live 2;
            let phase2 () = Live.delivered_count live 2 >= 10 in
            Alcotest.(check bool) "caught up" true (await phase2)));
    test "live: pooled frame encoder allocates nothing in steady state"
      (fun () ->
        (* The send path's inner loop: encode a message into the pooled
           scratch writer, append it as a frame to the pooled destination
           buffer, restart the buffer when full. After warm-up (writer
           growth to the high-water mark) this must not touch the minor
           heap at all — the regression this guards is any per-send
           [Bytes]/closure allocation creeping back into [Wire] or the
           message writers. The audited input adds the sentinel's work:
           the Gossip carries an order certificate and every send folds
           one payload id into the delivery chain and its window. *)
        let module P = Protocol.Make (Abcast_consensus.Paxos) in
        let module Wire = Abcast_util.Wire in
        let module Audit = Abcast_core.Audit in
        let payloads =
          List.init 8 (fun i ->
              Payload.make
                { origin = i mod 3; boot = 0; seq = i }
                (String.make 64 'x'))
        in
        let id0 = (List.hd payloads).Payload.id in
        let words_per_send ~audited =
          let cert =
            if audited then Some { Audit.c_boot = 1; c_len = 9; c_hash = 0x1234 }
            else None
          in
          let msg = P.Gossip { k = 5; len = 9; unordered = payloads; cert } in
          let chain = ref Audit.empty in
          let window = Audit.window ~cap:1024 () in
          let pos = ref 0 in
          let dest = Wire.writer ~cap:(Live.max_datagram + 16) () in
          let scratch = Wire.writer ~cap:4096 () in
          let send () =
            if audited then begin
              chain := Audit.mix !chain id0;
              incr pos;
              Audit.note window ~pos:!pos ~hash:!chain
            end;
            Wire.clear scratch;
            P.write_msg scratch msg;
            if Wire.length dest + Wire.length scratch + 3 > Live.max_datagram
            then Live.Frame.start dest ~src:0;
            Live.Frame.add dest ~msg:scratch
          in
          Live.Frame.start dest ~src:0;
          for _ = 1 to 1_000 do
            send ()
          done;
          let iters = 10_000 in
          let w0 = Gc.minor_words () in
          for _ = 1 to iters do
            send ()
          done;
          (Gc.minor_words () -. w0) /. float_of_int iters
        in
        List.iter
          (fun audited ->
            let per_send = words_per_send ~audited in
            if per_send > 0.01 then
              Alcotest.failf "%s send allocates %.3f minor words"
                (if audited then "audited" else "plain")
                per_send)
          [ false; true ]);
    slow_test "live: ring dissemination with a pipelined window" (fun () ->
        let stack = Factory.make { Protocol.throughput with window = 4 } in
        with_live ~base_port:7461 stack (fun live ->
            for j = 0 to 19 do
              Live.broadcast live ~node:(j mod 3) (Printf.sprintf "r%d" j)
            done;
            let done_ () =
              List.for_all
                (fun i -> Live.delivered_count live i >= 20)
                [ 0; 1; 2 ]
            in
            Alcotest.(check bool) "all delivered" true (await done_);
            let seq i = Live.delivered_data live i in
            Alcotest.(check (list string)) "0=1" (seq 0) (seq 1);
            Alcotest.(check (list string)) "1=2" (seq 1) (seq 2)));
    slow_test "live: lifecycle robustness" (fun () ->
        with_live ~base_port:7451 basic (fun live ->
            Alcotest.(check int) "n" 3 (Live.n live);
            Alcotest.(check bool) "up" true (Live.is_up live 0);
            (* crash is idempotent; ops on a down node degrade gracefully *)
            Live.crash live 1;
            Live.crash live 1;
            Alcotest.(check bool) "down" false (Live.is_up live 1);
            Alcotest.(check int) "down count reads 0" 0 (Live.delivered_count live 1);
            Live.broadcast live ~node:1 "ignored";
            (* recover is idempotent too *)
            Live.recover live 1;
            Live.recover live 1;
            Alcotest.(check bool) "up again" true (Live.is_up live 1);
            Live.broadcast live ~node:1 "counted";
            let done_ () = Live.delivered_count live 0 >= 1 in
            Alcotest.(check bool) "works after bounce" true (await done_)));
    slow_test "live: receive path drops undecodable datagrams" (fun () ->
        let module P = Protocol.Make (Abcast_consensus.Paxos) in
        let module Wire = Abcast_util.Wire in
        let base_port = 7471 in
        with_live ~base_port basic (fun live ->
            (* [tag ^ uvarint src ^ body]; a 'B' body is length-prefixed
               frames. The 'M' datagram carries a well-formed message:
               only 'B' batches are framing. *)
            let datagram tag ~src body =
              let w = Wire.writer () in
              Wire.write_u8 w (Char.code tag);
              Wire.write_uvarint w src;
              Wire.contents w ^ body
            in
            let msg = P.encode_msg (P.Need { ids = [] }) in
            let frame = Wire.to_string Wire.write_string msg in
            let single = datagram 'M' ~src:1 msg in
            let whole = datagram 'B' ~src:1 frame in
            let truncated = String.sub whole 0 (String.length whole - 1) in
            let bad_source = datagram 'B' ~src:9 frame in
            let rx () = (Live.net_stats live 0).rx_undecodable in
            let before = rx () in
            let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
            Fun.protect
              ~finally:(fun () -> Unix.close sock)
              (fun () ->
                List.iter
                  (fun d ->
                    ignore
                      (Unix.sendto_substring sock d 0 (String.length d) []
                         (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port))))
                  [ single; truncated; bad_source ]);
            Alcotest.(check bool) "three drops counted" true
              (await ~timeout:5.0 (fun () -> rx () >= before + 3));
            Alcotest.(check int) "exactly three" (before + 3) (rx ());
            for j = 0 to 4 do
              Live.broadcast live ~node:(j mod 3) (Printf.sprintf "u%d" j)
            done;
            let done_ () =
              List.for_all (fun i -> Live.delivered_count live i >= 5) [ 0; 1; 2 ]
            in
            Alcotest.(check bool) "all delivered" true (await done_);
            let seq i = Live.delivered_data live i in
            Alcotest.(check (list string)) "0=1" (seq 0) (seq 1);
            Alcotest.(check (list string)) "1=2" (seq 1) (seq 2)));
  ]

(* A stack wrapper for the live runtime's duties. Every frame carries
   the WAL bytes its sender had logged when the frame was queued, and
   the receiver checks that the sender's segment files already hold
   that many; every delivery upcall checks that the delivering node's
   files hold all it has logged. Either check failing counts a
   violation. A broadcast of ["stall"] only sleeps [stall] seconds in
   the mailbox job that runs it, counts in [stalls] and sets
   [stall_end] to the node's clock when it wakes. *)
let wal_file_bytes dir =
  Array.fold_left
    (fun acc name ->
      if Filename.check_suffix name ".log" then
        acc + (Unix.stat (Filename.concat dir name)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

type probe = {
  frames_checked : int Atomic.t;
  stalls : int Atomic.t;
  stall_end : int Atomic.t;
  violations : int Atomic.t;
  stores : Storage.t option array;
}

let new_probe () =
  {
    frames_checked = Atomic.make 0;
    stalls = Atomic.make 0;
    stall_end = Atomic.make 0;
    violations = Atomic.make 0;
    stores = Array.make 3 None;
  }

let probe_stack ?node_dir ?(stall = 0.0) (stack : Abcast_core.Proto.t) probe :
    Abcast_core.Proto.t =
  let module S = (val stack : Abcast_core.Proto.S) in
  let module Wire = Abcast_util.Wire in
  (module struct
    let name = S.name ^ "+probe"
    let shards = S.shards
    let broadcast_blocks = S.broadcast_blocks

    type msg = S.msg * int

    let msg_size (m, _) = S.msg_size m + 8
    let msg_group (m, _) = S.msg_group m

    let write_msg w (m, logged) =
      Wire.write_uvarint w logged;
      S.write_msg w m

    let read_msg r =
      let logged = Wire.read_uvarint r in
      (S.read_msg r, logged)

    let encode_msg m = Wire.to_string write_msg m
    let decode_msg s = Wire.of_string_opt read_msg s

    type t = { inner : S.t; self : int; now : unit -> int }

    let create (io : msg Engine.io) ~deliver =
      probe.stores.(io.self) <- Some io.store;
      let inner =
        S.create
          (Engine.map_io (fun m -> (m, Storage.disk_bytes io.store)) io)
          ~deliver
      in
      { inner; self = io.self; now = io.now }

    (* frames to ourselves never leave the node: no check *)
    let handler t ~src (m, logged) =
      (match node_dir with
      | Some node_dir when src <> t.self ->
        Atomic.incr probe.frames_checked;
        if wal_file_bytes (node_dir src) < logged then
          Atomic.incr probe.violations
      | _ -> ());
      S.handler t.inner ~src m

    let broadcast t ?on_agreed ?group data =
      if data = "stall" then begin
        Thread.delay stall;
        Atomic.set probe.stall_end (t.now ());
        Atomic.incr probe.stalls;
        { Payload.origin = t.self; boot = 0; seq = -1 }
      end
      else S.broadcast t.inner ?on_agreed ?group data

    let round t = S.round t.inner
    let delivered_count t = S.delivered_count t.inner
    let delivered_tail t = S.delivered_tail t.inner
    let delivery_vc t = S.delivery_vc t.inner
    let unordered_count t = S.unordered_count t.inner
  end)

let probe_tests =
  [
    slow_test "live: no frame or delivery leaves before the records behind it"
      (fun () ->
        with_temp_dir "abcast-live" @@ fun dir ->
        let node_dir i = Filename.concat dir (Printf.sprintf "node%d" i) in
        let probe = new_probe () in
        let deliveries = Atomic.make 0 in
        let on_deliver ~node ~group:_ _ =
          Atomic.incr deliveries;
          match probe.stores.(node) with
          | Some store
            when wal_file_bytes (node_dir node) < Storage.disk_bytes store ->
            Atomic.incr probe.violations
          | _ -> ()
        in
        let stack = probe_stack ~node_dir basic probe in
        match Live.create stack ~n:3 ~base_port:7501 ~dir ~on_deliver () with
        | exception Unix.Unix_error (err, _, _) ->
          Printf.printf "skipping live test: %s\n" (Unix.error_message err)
        | live ->
          Fun.protect
            ~finally:(fun () -> Live.shutdown live)
            (fun () ->
              for j = 0 to 19 do
                Live.broadcast live ~node:(j mod 3) (Printf.sprintf "f%d" j)
              done;
              Alcotest.(check bool) "all delivered" true
                (await (fun () ->
                     List.for_all
                       (fun i -> Live.delivered_count live i >= 20)
                       [ 0; 1; 2 ]));
              Alcotest.(check bool) "frames checked" true
                (Atomic.get probe.frames_checked > 0);
              Alcotest.(check int) "deliveries checked" 60
                (Atomic.get deliveries);
              Alcotest.(check int) "violations" 0
                (Atomic.get probe.violations)));
    slow_test "live: a stalled loop reads the frames that came meanwhile first"
      (fun () ->
        (* node 0 leads and beats node 1, whose mailbox job sleeps for
           three detector timeouts (10 ms each); the next pass must drain
           the leader's frames before its watch timer fires. Only that
           pass is judged: the leader's own thread may miss a beat on a
           loaded host at any other moment, and a suspicion then is the
           detector doing its job. *)
        let module Flight = Abcast_sim.Flight in
        let probe = new_probe () in
        let stack = probe_stack ~stall:0.030 basic probe in
        let timeout_us = 10_000 in
        with_live ~base_port:7511 stack (fun live ->
            Thread.delay 0.1;
            Live.broadcast live ~node:1 "stall";
            Alcotest.(check bool) "the stall ran" true
              (await (fun () -> Atomic.get probe.stalls = 1));
            Thread.delay 0.05;
            let woke = Atomic.get probe.stall_end in
            let after_stall =
              List.filter
                (fun (e : Flight.event) ->
                  e.e_stage = Flight.suspect && e.e_a = 0 && e.e_time >= woke
                  && e.e_time < woke + timeout_us)
                (Flight.events (Live.flight live 1))
            in
            Alcotest.(check int) "no suspicion of the leader" 0
              (List.length after_stall)));
  ]

(* A stack whose node [node] raises out of its handler when it delivers
   the payload "boom" (once: the replay after recovery delivers it
   again). *)
let raise_on_marker ~node (stack : Abcast_core.Proto.t) : Abcast_core.Proto.t =
  let module S = (val stack : Abcast_core.Proto.S) in
  let armed = Atomic.make true in
  (module struct
    include S

    let create (io : msg Engine.io) ~deliver =
      S.create io ~deliver:(fun ~group (pl : Payload.t) ->
          if io.self = node && pl.data = "boom" && Atomic.exchange armed false
          then failwith "marker payload";
          deliver ~group pl)
  end)

let robustness_tests =
  [
    slow_test "live: threads encoding proposals at once never mix batches"
      (fun () ->
        (* Nodes of one process are threads of one domain and switch at
           allocation points, also inside an encode; each thread owns its
           writers, so every value decodes to exactly what it claims. *)
        let module Batch = Abcast_core.Batch in
        let stop = Atomic.make false and bad = Atomic.make 0 in
        let encoder origin () =
          let w = Batch.writers () in
          let backlog =
            List.init 400 (fun seq ->
                Payload.make { Payload.origin; boot = 0; seq }
                  (String.make (20 + ((seq * 7 + origin) mod 100)) 'x'))
          in
          let rounds = ref 0 in
          while not (Atomic.get stop) do
            let cut = List.filteri (fun i _ -> i >= !rounds mod 200) backlog in
            let value, included =
              Batch.encode_sorted_bounded w ~max_bytes:24_000 cut
            in
            if Batch.decode_opt value <> Some included then Atomic.incr bad;
            incr rounds
          done;
          !rounds
        in
        let results = Array.make 3 0 in
        let threads =
          List.init 3 (fun i ->
              Thread.create (fun () -> results.(i) <- encoder i ()) ())
        in
        Thread.delay 2.0;
        Atomic.set stop true;
        List.iter Thread.join threads;
        Alcotest.(check bool) "every thread encoded" true
          (Array.for_all (fun r -> r > 0) results);
        Alcotest.(check int) "values that decode to another batch" 0
          (Atomic.get bad));
    slow_test "live: a raising event loop takes its node down, visibly"
      (fun () ->
        with_temp_dir "abcast-live" @@ fun dir ->
        let stack = raise_on_marker ~node:1 basic in
        with_live ~dir ~base_port:7691 stack (fun live ->
            let all_have k i = Live.delivered_count live i >= k in
            Live.broadcast live ~node:0 "a0";
            Alcotest.(check bool) "first delivery" true
              (await (fun () -> List.for_all (all_have 1) [ 0; 1; 2 ]));
            Live.broadcast live ~node:0 "boom";
            Alcotest.(check bool) "down within 1 s" true
              (await ~timeout:1.0 (fun () -> not (Live.is_up live 1)));
            Alcotest.(check int) "one death counted" 1 (Live.loop_deaths live 1);
            let dump =
              In_channel.with_open_bin
                (Filename.concat dir "node1/flight.bin")
                In_channel.input_all
            in
            (match Abcast_sim.Flight.load_string dump with
            | Ok d ->
              Alcotest.(check bool) "flight.bin holds the death" true
                (List.exists
                   (fun (e : Abcast_sim.Flight.event) ->
                     e.e_stage = Abcast_sim.Flight.loop_died)
                   d.d_events)
            | Error e -> Alcotest.fail e);
            Live.recover live 1;
            Live.broadcast live ~node:0 "a2";
            Alcotest.(check bool) "the recovered node delivers again" true
              (await (fun () -> List.for_all (all_have 3) [ 0; 1; 2 ]));
            Alcotest.(check (list string)) "same order"
              (Live.delivered_data live 0) (Live.delivered_data live 1)));
    slow_test "live: a node whose store fails to open dies visibly"
      (fun () ->
        with_temp_dir "abcast-live" @@ fun dir ->
        (* a directory where node 1's first WAL segment belongs: the
           store's recovery cannot read it *)
        let node1 = Filename.concat dir "node1" in
        Abcast_store.Durable.mkdir_p (Filename.concat node1 "wal-0000000001.log");
        let t0 = Unix.gettimeofday () in
        with_live ~dir ~base_port:7695 basic (fun live ->
            Alcotest.(check bool) "down within 1 s" true
              (await ~timeout:1.0 (fun () -> not (Live.is_up live 1)));
            Alcotest.(check bool) "create did not wait on it" true
              (Unix.gettimeofday () -. t0 < 1.0);
            Alcotest.(check int) "one death counted" 1 (Live.loop_deaths live 1);
            let dump =
              In_channel.with_open_bin
                (Filename.concat node1 "flight.bin")
                In_channel.input_all
            in
            match Abcast_sim.Flight.load_string dump with
            | Ok d ->
              Alcotest.(check bool) "flight.bin holds the death" true
                (List.exists
                   (fun (e : Abcast_sim.Flight.event) ->
                     e.e_stage = Abcast_sim.Flight.loop_died)
                   d.d_events)
            | Error e -> Alcotest.fail e));
  ]

let suite = ("live", tests @ probe_tests @ robustness_tests)
