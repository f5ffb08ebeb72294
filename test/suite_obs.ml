(* Observability layer tests: log-bucketed histogram accuracy and edge
   cases, the Chrome-trace export built from Flight events, the
   instrumented lifecycle stages, the live Prometheus endpoint and the
   on-demand flight dump. *)

open Helpers
module Histogram = Abcast_util.Histogram
module Flight = Abcast_sim.Flight
module Doctor = Abcast_harness.Doctor
module Durable = Abcast_store.Durable
module Live = Abcast_live.Runtime

let of_samples xs =
  let h = Histogram.create () in
  List.iter (Histogram.add h) xs;
  h

(* Exact nearest-rank percentile of a sample list, the reference the
   histogram estimate is compared against. *)
let exact_percentile xs p =
  let sorted = List.sort compare xs in
  let n = List.length sorted in
  if n = 0 then 0.
  else if p <= 0. then List.hd sorted
  else if p >= 100. then List.nth sorted (n - 1)
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let rel_err est exact =
  if exact = 0. then Float.abs est
  else Float.abs (est -. exact) /. Float.abs exact

(* ---- histogram unit tests ---- *)

let histogram_tests =
  [
    test "histogram: empty" (fun () ->
        let h = Histogram.create () in
        Alcotest.(check int) "count" 0 (Histogram.count h);
        Alcotest.(check (float 0.)) "sum" 0. (Histogram.sum h);
        Alcotest.(check (float 0.)) "mean" 0. (Histogram.mean h);
        Alcotest.(check (float 0.)) "p50" 0. (Histogram.percentile h 50.);
        Alcotest.(check (float 0.)) "p0" 0. (Histogram.percentile h 0.);
        Alcotest.(check (float 0.)) "p100" 0. (Histogram.percentile h 100.);
        let (s : Histogram.summary) = Histogram.summary h in
        Alcotest.(check int) "summary count" 0 s.count;
        Alcotest.(check (list (pair (float 0.) int))) "buckets" []
          (Histogram.buckets h));
    test "histogram: buckets are allocated by the first sample" (fun () ->
        let h = Histogram.create () in
        let fresh = Obj.reachable_words (Obj.repr h) in
        if fresh > 40 then Alcotest.failf "fresh histogram: %d words" fresh;
        Histogram.add h 5.0;
        Alcotest.(check bool) "first add allocates the buckets" true
          (Obj.reachable_words (Obj.repr h) > 512);
        let rec add_all = function
          | [] -> ()
          | v :: rest -> Histogram.add h v; add_all rest
        in
        let samples = List.init 1_000 (fun i -> float_of_int (i + 1)) in
        let w0 = Gc.minor_words () in
        add_all samples;
        Alcotest.(check (float 0.)) "later adds allocate nothing" 0.
          (Gc.minor_words () -. w0);
        let copy = Histogram.copy (Histogram.create ()) in
        Histogram.merge_into ~dst:copy (Histogram.create ());
        Histogram.clear copy;
        Alcotest.(check int) "empty copy/merge/clear" 0 (Histogram.count copy);
        Alcotest.(check (list (pair (float 0.) int))) "no buckets" []
          (Histogram.buckets copy);
        Histogram.merge_into ~dst:copy h;
        Alcotest.(check int) "merge into an empty histogram" 1_001
          (Histogram.count copy);
        Alcotest.(check bool) "same buckets" true
          (Histogram.buckets copy = Histogram.buckets h));
    test "histogram: single sample is every percentile" (fun () ->
        let h = of_samples [ 137.5 ] in
        List.iter
          (fun p ->
            Alcotest.(check (float 0.))
              (Printf.sprintf "p%g" p)
              137.5
              (Histogram.percentile h p))
          [ 0.; 1.; 50.; 99.; 100. ];
        Alcotest.(check (float 0.)) "mean" 137.5 (Histogram.mean h));
    test "histogram: p0/p100 are the exact extremes" (fun () ->
        let h = of_samples [ 3.0; 999.25; 42.0; 17.3 ] in
        Alcotest.(check (float 0.)) "p0" 3.0 (Histogram.percentile h 0.);
        Alcotest.(check (float 0.)) "p100" 999.25 (Histogram.percentile h 100.);
        Alcotest.(check (float 0.)) "min" 3.0 (Histogram.min_value h);
        Alcotest.(check (float 0.)) "max" 999.25 (Histogram.max_value h));
    test "histogram: values at and below 1 share bucket 0" (fun () ->
        let h = of_samples [ 0.0; 0.3; 1.0 ] in
        (match Histogram.buckets h with
        | [ (ub, count) ] ->
          Alcotest.(check (float 0.)) "bound" 1.0 ub;
          Alcotest.(check int) "count" 3 count
        | bs -> Alcotest.failf "expected one bucket, got %d" (List.length bs));
        (* estimates stay clamped inside the true extremes *)
        let p50 = Histogram.percentile h 50. in
        Alcotest.(check bool) "clamped" true (p50 >= 0.0 && p50 <= 1.0));
    test "histogram: bucket boundary neighbours stay within error" (fun () ->
        (* Samples straddling a bucket edge: each estimate must be within
           the documented relative error of its own sample. *)
        let gamma = 1.04 in
        List.iter
          (fun b ->
            let edge = gamma ** float_of_int b in
            List.iter
              (fun v ->
                let h = of_samples [ v ] in
                Alcotest.(check bool)
                  (Printf.sprintf "single %.6f" v)
                  true
                  (rel_err (Histogram.percentile h 50.) v <= 1e-9))
              [ edge *. 0.999; edge; edge *. 1.001 ])
          [ 1; 2; 10; 100; 400 ]);
    test "histogram: overflow bucket reports infinity and exact max"
      (fun () ->
        let huge = 1e12 in
        let h = of_samples [ 5.0; huge ] in
        let bounds = List.map fst (Histogram.buckets h) in
        Alcotest.(check bool) "has +inf bucket" true
          (List.exists (fun b -> b = infinity) bounds);
        Alcotest.(check (float 0.)) "p100 exact" huge
          (Histogram.percentile h 100.);
        (* interior estimate of the overflow sample clamps to true max *)
        Alcotest.(check bool) "p75 finite and clamped" true
          (Histogram.percentile h 75. <= huge));
    test "histogram: clear empties in place" (fun () ->
        let h = of_samples [ 1.0; 2.0; 3.0 ] in
        Histogram.clear h;
        Alcotest.(check int) "count" 0 (Histogram.count h);
        Histogram.add h 9.0;
        Alcotest.(check int) "usable after clear" 1 (Histogram.count h);
        Alcotest.(check (float 0.)) "fresh min" 9.0 (Histogram.min_value h));
  ]

(* ---- QCheck properties ---- *)

(* Positive samples spread over six decades; > 1 so every sample is in a
   geometric bucket where the relative-error bound applies. *)
let sample_gen =
  QCheck.Gen.(map (fun e -> 10. ** e) (float_range 0.001 6.0))

let samples_arb n = QCheck.make QCheck.Gen.(list_size (int_range 1 n) sample_gen)

let qcheck_props =
  [
    QCheck.Test.make ~name:"histogram: merge equals concatenation" ~count:100
      (QCheck.pair (samples_arb 200) (samples_arb 200))
      (fun (xs, ys) ->
        let a = of_samples xs and b = of_samples ys in
        let merged = Histogram.merge a b in
        let concat = of_samples (xs @ ys) in
        Histogram.buckets merged = Histogram.buckets concat
        && Histogram.count merged = Histogram.count concat
        && rel_err (Histogram.sum merged) (Histogram.sum concat) < 1e-9
        && Histogram.percentile merged 50. = Histogram.percentile concat 50.);
    QCheck.Test.make ~name:"histogram: merge_into matches merge" ~count:100
      (QCheck.pair (samples_arb 100) (samples_arb 100))
      (fun (xs, ys) ->
        let a = of_samples xs and b = of_samples ys in
        let m = Histogram.merge a b in
        let dst = of_samples xs in
        Histogram.merge_into ~dst b;
        Histogram.buckets dst = Histogram.buckets m
        && Histogram.count dst = Histogram.count m);
    QCheck.Test.make
      ~name:"histogram: p50/p95 within documented error of exact (10k)"
      ~count:20
      (QCheck.make QCheck.Gen.(list_size (return 10_000) sample_gen))
      (fun xs ->
        let h = of_samples xs in
        List.for_all
          (fun p ->
            let est = Histogram.percentile h p in
            let exact = exact_percentile xs p in
            (* nearest-rank vs bucket-midpoint can differ by one rank on
               top of the bucket error; allow a small slack above the
               documented bound *)
            rel_err est exact <= Histogram.bucket_error +. 0.01)
          [ 50.; 95. ]);
    QCheck.Test.make ~name:"histogram: mean and extremes are exact" ~count:100
      (samples_arb 300)
      (fun xs ->
        let h = of_samples xs in
        let n = List.length xs in
        let exact_mean = List.fold_left ( +. ) 0. xs /. float_of_int n in
        rel_err (Histogram.mean h) exact_mean < 1e-9
        && Histogram.min_value h = List.fold_left Float.min infinity xs
        && Histogram.max_value h = List.fold_left Float.max neg_infinity xs);
  ]

(* ---- trace spans and emitf cost ---- *)

(* A mini JSON validator: accepts exactly the grammar we emit. Returns
   the index after the value or raises. *)
let validate_json s =
  let n = String.length s in
  let fail i msg = Alcotest.failf "invalid JSON at %d: %s" i msg in
  let rec skip_ws i = if i < n && (s.[i] = ' ' || s.[i] = '\n') then skip_ws (i + 1) else i in
  let rec value i =
    let i = skip_ws i in
    if i >= n then fail i "eof"
    else
      match s.[i] with
      | '{' -> obj (skip_ws (i + 1)) true
      | '[' -> arr (skip_ws (i + 1)) true
      | '"' -> string_ (i + 1)
      | '-' | '0' .. '9' -> number i
      | 't' -> lit i "true"
      | 'f' -> lit i "false"
      | 'n' -> lit i "null"
      | c -> fail i (Printf.sprintf "unexpected %c" c)
  and lit i w =
    if i + String.length w <= n && String.sub s i (String.length w) = w then
      i + String.length w
    else fail i w
  and string_ i =
    if i >= n then fail i "unterminated string"
    else if s.[i] = '"' then i + 1
    else if s.[i] = '\\' then
      if i + 1 < n then string_ (i + 2) else fail i "bad escape"
    else string_ (i + 1)
  and number i =
    let j = ref i in
    if !j < n && s.[!j] = '-' then incr j;
    let digits = ref 0 in
    while
      !j < n
      && (match s.[!j] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false)
    do
      incr digits;
      incr j
    done;
    if !digits = 0 then fail i "empty number" else !j
  and obj i first =
    let i = skip_ws i in
    if i < n && s.[i] = '}' then i + 1
    else
      let i = if first then i else if i < n && s.[i] = ',' then skip_ws (i + 1) else fail i "expected ,"
      in
      if i < n && s.[i] = '"' then begin
        let i = string_ (i + 1) in
        let i = skip_ws i in
        if i < n && s.[i] = ':' then obj_after_value (value (i + 1)) else fail i "expected :"
      end
      else fail i "expected key"
  and obj_after_value i =
    let i = skip_ws i in
    if i < n && s.[i] = '}' then i + 1
    else if i < n && s.[i] = ',' then obj (skip_ws i) false
    else fail i "expected , or }"
  and arr i first =
    let i = skip_ws i in
    if i < n && s.[i] = ']' then i + 1
    else
      let i =
        if first then i
        else if i < n && s.[i] = ',' then skip_ws (i + 1)
        else fail i "expected ,"
      in
      arr_after_value (value i)
  and arr_after_value i =
    let i = skip_ws i in
    if i < n && s.[i] = ']' then i + 1
    else if i < n && s.[i] = ',' then arr (skip_ws i) false
    else fail i "expected , or ]"
  in
  let i = skip_ws (value 0) in
  if i <> n then fail i "trailing garbage"

(* A seeded paper_basic run; [traced] gives every node a flight ring
   and samples every broadcast, [faults] adds 5% loss and a crash and
   recovery of node 2. *)
let seeded_run ?(traced = true) ?(faults = false) () =
  let cfg =
    { Protocol.paper_basic with trace_sample = (if traced then 1 else 0) }
  in
  let flight =
    if traced then Some (fun ~node:_ -> Flight.create ~cap:8192 ()) else None
  in
  let net = Abcast_sim.Net.create ~loss:(if faults then 0.05 else 0.0) () in
  let cluster =
    Cluster.create (Factory.make cfg) ~seed:11 ~n:3 ~net ?flight ()
  in
  if faults then begin
    Cluster.at cluster 6_000 (fun () -> Cluster.crash cluster 2);
    Cluster.at cluster 14_000 (fun () -> Cluster.recover cluster 2)
  end;
  let rng = Rng.create 99 in
  let count =
    Workload.open_loop cluster ~rng ~senders:[ 0; 1; 2 ] ~start:1_000
      ~stop:20_000 ~mean_gap:1_200 ()
  in
  (* a crash can lose broadcasts the down node had not disseminated, so
     that run waits for every node to hold everything anyone delivered *)
  let target () =
    if faults then List.length (Cluster.ever_delivered cluster) else count
  in
  let ok =
    Cluster.run_until cluster ~until:30_000_000
      ~pred:(fun () ->
        Cluster.now cluster > 20_000
        && Cluster.all_caught_up cluster ~count:(target ()) ())
      ()
  in
  Alcotest.(check bool) "quiesced" true ok;
  cluster

let merged_events cluster =
  List.concat_map
    (fun i -> Flight.events (Cluster.flight cluster i))
    (List.init (Cluster.n cluster) Fun.id)

(* The integer after ["key":] on one export line, if present. *)
let int_field key line =
  let pat = Printf.sprintf {|"%s":|} key in
  let n = String.length pat in
  let rec find i =
    if i + n > String.length line then None
    else if String.sub line i n = pat then
      Some (Scanf.sscanf (String.sub line (i + n) (String.length line - i - n)) "%d" Fun.id)
    else find (i + 1)
  in
  find 0

(* The async (cat, ph, id, ts, pid) events of an export, one per line. *)
let async_events json =
  String.split_on_char '\n' json
  |> List.filter_map (fun line ->
         try
           Some
             (Scanf.sscanf line
                {|  {"name":"%_s@","cat":"%s@","ph":"%s@","id":"%s@","ts":%d,"pid":%d,|}
                (fun cat ph id ts pid -> (cat, ph, id, ts, pid)))
         with Scanf.Scan_failure _ | End_of_file -> None)

let trace_tests =
  [
    test "trace: chrome export of a seeded run is valid and well-paired"
      (fun () ->
        let cluster = seeded_run () in
        let json = Doctor.chrome_json (merged_events cluster) in
        validate_json json;
        (* ts values are monotone over the merged nodes *)
        let ts =
          List.filter_map (int_field "ts") (String.split_on_char '\n' json)
        in
        Alcotest.(check bool) "saw ts values" true (ts <> []);
        ignore
          (List.fold_left
             (fun last t ->
               Alcotest.(check bool) "monotone ts" true (t >= last);
               t)
             min_int ts);
        (* every end has exactly one earlier begin on its node *)
        let open_tbl = Hashtbl.create 64 in
        let closed = Hashtbl.create 8 in
        List.iter
          (fun (cat, ph, id, ts, pid) ->
            match ph with
            | "b" ->
              Alcotest.(check bool)
                (Printf.sprintf "no double begin %s/%s" cat id)
                false
                (Hashtbl.mem open_tbl (cat, id));
              Hashtbl.add open_tbl (cat, id) (ts, pid)
            | "e" -> (
              match Hashtbl.find_opt open_tbl (cat, id) with
              | None -> Alcotest.failf "end without begin: %s/%s" cat id
              | Some (t0, pid0) ->
                Alcotest.(check bool) "end not before begin" true (ts >= t0);
                Alcotest.(check int) "ends on the begin's node" pid0 pid;
                Hashtbl.remove open_tbl (cat, id);
                Hashtbl.replace closed cat
                  (1 + Option.value ~default:0 (Hashtbl.find_opt closed cat)))
            | ph -> Alcotest.failf "unexpected phase %s" ph)
          (async_events json);
        let closed cat = Option.value ~default:0 (Hashtbl.find_opt closed cat) in
        Alcotest.(check int) "one closed abcast span per broadcast"
          (List.length (Cluster.sent cluster))
          (closed "abcast");
        Alcotest.(check bool) "consensus spans recorded" true
          (closed "consensus" > 0);
        (* a clean run closes every span it opened *)
        Hashtbl.iter
          (fun (cat, id) _ -> Alcotest.failf "unclosed %s span %s" cat id)
          open_tbl);
    test "trace: recording does not perturb the simulation" (fun () ->
        let fingerprint cluster =
          ( Cluster.now cluster,
            Cluster.events_processed cluster,
            List.init (Cluster.n cluster) (fun i ->
                ids_of (Cluster.delivered_tail cluster i)) )
        in
        let plain = fingerprint (seeded_run ~traced:false ~faults:true ()) in
        let traced = seeded_run ~faults:true () in
        Alcotest.(check bool) "traced run recorded" true
          (merged_events traced <> []);
        Alcotest.(check bool) "same deliveries, events and final now" true
          (plain = fingerprint traced));
  ]

(* ---- lifecycle instrumentation on a seeded sim run ---- *)

let with_dir f =
  with_temp_dir "abcast-obs" @@ fun d ->
  Unix.mkdir d 0o755;
  f d

let stage_tests =
  [
    test "stages: seeded run populates lifecycle and WAL histograms"
      (fun () ->
        with_dir (fun base ->
            let storage ~metrics ~node =
              Storage.create
                ~dir:(Filename.concat base (Printf.sprintf "n%d" node))
                ~fsync:Durable.Always ~metrics ~node ()
            in
            let cluster =
              Cluster.create (Factory.make Protocol.paper_basic) ~seed:5 ~n:3
                ~storage ()
            in
            let rng = Rng.create 55 in
            let count =
              Workload.open_loop cluster ~rng ~senders:[ 0; 1; 2 ]
                ~start:1_000 ~stop:25_000 ~mean_gap:1_500 ()
            in
            let ok =
              Cluster.run_until cluster ~until:30_000_000
                ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
                ()
            in
            Alcotest.(check bool) "quiesced" true ok;
            List.iter
              (fun name ->
                match Cluster.hist_summary cluster name with
                | None -> Alcotest.failf "series %s never observed" name
                | Some (s : Histogram.summary) ->
                  Alcotest.(check bool) (name ^ " has samples") true
                    (s.count > 0);
                  Alcotest.(check bool) (name ^ " percentiles ordered") true
                    (s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max))
              [
                "stage.broadcast_to_propose_us";
                "stage.propose_to_adeliver_us";
                "lat_deliver";
                "cons.propose_to_decide_us";
                "cons.instance_us";
                "wal_append_us";
                "wal_fsync_us";
                "wal_recover_us";
              ];
            (* fsync Always: every append fsyncs, so the two counts agree *)
            let c name =
              match Cluster.hist_summary cluster name with
              | Some (s : Histogram.summary) -> s.count
              | None -> 0
            in
            Alcotest.(check int) "append count = fsync count"
              (c "wal_append_us") (c "wal_fsync_us")));
  ]

(* ---- live Prometheus endpoint ---- *)

let http_get ~port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec read () =
        match Unix.read sock chunk 0 4096 with
        | 0 -> ()
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          read ()
      in
      read ();
      Buffer.contents buf)

(* One Prometheus text line: comment, blank, or name{labels} value. *)
let prom_line_ok line =
  line = ""
  || String.starts_with ~prefix:"# HELP " line
  || String.starts_with ~prefix:"# TYPE " line
  ||
  match String.index_opt line ' ' with
  | None -> false
  | Some sp ->
    let name_part = String.sub line 0 sp in
    let value_part = String.sub line (sp + 1) (String.length line - sp - 1) in
    let name_ok =
      name_part <> ""
      && String.for_all
           (fun c ->
             match c with
             | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
             | '{' | '}' | '"' | '=' | ',' | '.' | '+' | '-' -> true
             | _ -> false)
           name_part
    in
    name_ok && float_of_string_opt value_part <> None

let live_tests =
  [
    slow_test "live: Prometheus endpoint serves parseable lifecycle metrics"
      (fun () ->
        let port = 7461 and mport = 9461 in
        match
          Live.create (Factory.make Protocol.paper_basic) ~n:3 ~base_port:port
            ~metrics_port:mport ()
        with
        | exception Unix.Unix_error (err, _, _) ->
          Printf.printf "skipping live metrics test: %s\n"
            (Unix.error_message err)
        | live ->
          Fun.protect ~finally:(fun () -> Live.shutdown live) @@ fun () ->
          for j = 0 to 9 do
            Live.broadcast live ~node:(j mod 3) (Printf.sprintf "m%d" j)
          done;
          let deadline = Unix.gettimeofday () +. 15.0 in
          while
            (not
               (List.for_all
                  (fun i -> Live.delivered_count live i >= 10)
                  [ 0; 1; 2 ]))
            && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.02
          done;
          let body = http_get ~port:mport "/metrics" in
          (* split headers from body *)
          let payload =
            match Astring.String.cut ~sep:"\r\n\r\n" body with
            | Some (_, b) -> b
            | None -> Alcotest.fail "no HTTP header/body separator"
          in
          Alcotest.(check bool) "HTTP 200" true
            (String.starts_with ~prefix:"HTTP/1.0 200" body);
          let lines = String.split_on_char '\n' payload in
          Alcotest.(check bool) "non-empty dump" true (List.length lines > 10);
          List.iter
            (fun line ->
              if not (prom_line_ok line) then
                Alcotest.failf "unparseable metrics line: %S" line)
            lines;
          (* the lifecycle histograms are present *)
          List.iter
            (fun needle ->
              Alcotest.(check bool) ("contains " ^ needle) true
                (Astring.String.is_infix ~affix:needle payload))
            [
              "abcast_stage_broadcast_to_propose_us_bucket";
              "abcast_stage_propose_to_adeliver_us_count";
              "abcast_cons_propose_to_decide_us_sum";
              "abcast_lat_deliver_bucket";
              "le=\"+Inf\"";
            ];
          (* in-process render agrees with what was served *)
          let direct = Live.prometheus live in
          Alcotest.(check bool) "direct render parses too" true
            (List.for_all prom_line_ok (String.split_on_char '\n' direct)));
    slow_test "live: request_dump persists every node's flight recorder"
      (fun () ->
        with_dir @@ fun base ->
        match
          Live.create (Factory.make Protocol.paper_basic) ~n:3 ~base_port:7481
            ~dir:base ()
        with
        | exception Unix.Unix_error (err, _, _) ->
          Printf.printf "skipping live dump test: %s\n"
            (Unix.error_message err)
        | live ->
          Fun.protect ~finally:(fun () -> Live.shutdown live) @@ fun () ->
          for j = 0 to 5 do
            Live.broadcast live ~node:(j mod 3) (Printf.sprintf "m%d" j)
          done;
          Live.request_dump live;
          (* The periodic dump fires a second after each loop starts; a
             0.5 s window only the on-demand path can meet. *)
          let has_boot i =
            let path =
              Filename.concat
                (Filename.concat base (Printf.sprintf "node%d" i))
                "flight.bin"
            in
            match Flight.load_file path with
            | Ok d ->
              List.exists
                (fun (e : Flight.event) -> e.e_stage = Flight.boot)
                d.Flight.d_events
            | Error _ -> false
          in
          let deadline = Unix.gettimeofday () +. 0.5 in
          while
            (not (List.for_all has_boot [ 0; 1; 2 ]))
            && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.01
          done;
          List.iter
            (fun i ->
              Alcotest.(check bool)
                (Printf.sprintf "node%d/flight.bin holds its boot" i)
                true (has_boot i))
            [ 0; 1; 2 ]);
  ]

(* ---- flight recorder (PR 9) ---- *)

let record_n fl n =
  for i = 0 to n - 1 do
    Flight.record fl ~time:(i * 10) ~node:(i mod 3) ~group:0 ~boot:1
      ~stage:Flight.bcast ~trace:0 ~a:i ~b:(i * 2)
  done

let flight_tests =
  [
    test "flight: ring wraps, keeping the newest events" (fun () ->
        let fl = Flight.create ~cap:8 () in
        record_n fl 20;
        Alcotest.(check int) "total" 20 (Flight.total fl);
        Alcotest.(check int) "stored" 8 (Flight.stored fl);
        Alcotest.(check int) "dropped" 12 (Flight.dropped fl);
        let evs = Flight.events fl in
        Alcotest.(check (list int)) "oldest-first tail survives"
          [ 12; 13; 14; 15; 16; 17; 18; 19 ]
          (List.map (fun (e : Flight.event) -> e.e_a) evs);
        (match evs with
        | e :: _ ->
          Alcotest.(check int) "time" 120 e.e_time;
          Alcotest.(check int) "node" 0 e.e_node;
          Alcotest.(check int) "b" 24 e.e_b
        | [] -> Alcotest.fail "no events"));
    test "flight: disabled recorder records nothing" (fun () ->
        Alcotest.(check bool) "off" false (Flight.enabled Flight.disabled);
        record_n Flight.disabled 5;
        Alcotest.(check int) "total" 0 (Flight.total Flight.disabled);
        Alcotest.(check (list int)) "events" []
          (List.map
             (fun (e : Flight.event) -> e.e_a)
             (Flight.events Flight.disabled)));
    test "flight: dump/reload roundtrips through a file" (fun () ->
        with_dir (fun base ->
            let fl = Flight.create ~cap:16 () in
            record_n fl 40;
            (* negative operands must survive the zigzag encoding *)
            Flight.record fl ~time:1000 ~node:2 ~group:3 ~boot:2
              ~stage:Flight.stjump ~trace:0 ~a:(-7) ~b:min_int;
            let path = Filename.concat base "flight.bin" in
            Flight.dump_to_file fl path;
            match Flight.load_file path with
            | Error e -> Alcotest.failf "load failed: %s" e
            | Ok d ->
              Alcotest.(check int) "dropped persisted" (Flight.dropped fl)
                d.Flight.d_dropped;
              Alcotest.(check bool) "events identical" true
                (d.Flight.d_events = Flight.events fl);
              (match List.rev d.Flight.d_events with
              | last :: _ ->
                Alcotest.(check int) "a" (-7) last.Flight.e_a;
                Alcotest.(check int) "b" min_int last.Flight.e_b
              | [] -> Alcotest.fail "empty dump")));
    test "flight: load rejects garbage and truncations" (fun () ->
        (match Flight.load_string "not a flight dump" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "garbage accepted");
        let fl = Flight.create ~cap:4 () in
        record_n fl 4;
        let s = Flight.dump_string fl in
        for len = 0 to String.length s - 1 do
          match Flight.load_string (String.sub s 0 len) with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "prefix %d accepted" len
        done);
  ]

(* ---- doctor: offline trace analysis over synthetic dumps ---- *)

module Trace_ctx = Abcast_core.Trace_ctx

let write_dump base i fl =
  let d = Filename.concat base (Printf.sprintf "node%d" i) in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Flight.dump_to_file fl (Filename.concat d "flight.bin")

(* A minimal healthy 3-node run: one sampled broadcast travelling
   submit -> bcast -> rx -> propose -> decide -> apply x3 -> ack, plus
   the untraced per-instance propose/decide pair every node logs. *)
let healthy_cluster ?(extra = fun (_ : int) (_ : Flight.t) -> ()) () =
  let tid = Trace_ctx.make ~node:0 ~stamp:1 in
  let fls = Array.init 3 (fun _ -> Flight.create ~cap:128 ()) in
  let rec_ i ~time ~stage ~trace ~a ~b =
    Flight.record fls.(i) ~time ~node:i ~group:0 ~boot:1 ~stage ~trace ~a ~b
  in
  Array.iteri
    (fun i fl ->
      Flight.record fl ~time:0 ~node:i ~group:0 ~boot:1 ~stage:Flight.boot
        ~trace:0 ~a:1 ~b:0)
    fls;
  rec_ 0 ~time:10 ~stage:Flight.submit ~trace:0 ~a:7 ~b:1;
  rec_ 0 ~time:20 ~stage:Flight.bcast ~trace:tid ~a:1 ~b:32;
  rec_ 1 ~time:120 ~stage:Flight.rx_ring ~trace:tid ~a:0 ~b:0;
  rec_ 2 ~time:140 ~stage:Flight.rx_gossip ~trace:tid ~a:0 ~b:0;
  (* leader proposes instance 3 carrying the payload *)
  rec_ 0 ~time:200 ~stage:Flight.propose ~trace:0 ~a:3 ~b:1;
  rec_ 0 ~time:200 ~stage:Flight.propose ~trace:tid ~a:3 ~b:0;
  for i = 0 to 2 do
    rec_ i ~time:(900 + (i * 10)) ~stage:Flight.decide ~trace:0 ~a:3 ~b:32;
    rec_ i ~time:(1000 + (i * 10)) ~stage:Flight.apply ~trace:tid ~a:5 ~b:0
  done;
  rec_ 0 ~time:1100 ~stage:Flight.ack ~trace:tid ~a:7 ~b:1;
  Array.iteri extra fls;
  fls

let analyze_cluster fls =
  with_dir (fun base ->
      Array.iteri (fun i fl -> write_dump base i fl) fls;
      match Doctor.analyze ~dir:base () with
      | Error e -> Alcotest.failf "analyze failed: %s" e
      | Ok r -> r)

let doctor_tests =
  [
    test "doctor: reconstructs the full causal path of a sampled trace"
      (fun () ->
        let r = analyze_cluster (healthy_cluster ()) in
        Alcotest.(check int) "one sampled trace" 1 (List.length r.Doctor.traces);
        Alcotest.(check int) "fully reconstructed" 1 (Doctor.reconstructed r);
        Alcotest.(check bool) "no anomalies" false (Doctor.has_anomalies r);
        let t = List.hd r.Doctor.traces in
        Alcotest.(check (option int)) "submit joined via ack" (Some 10)
          t.Doctor.submit_time;
        Alcotest.(check (option int)) "decide" (Some 900) t.Doctor.decide_time;
        Alcotest.(check int) "applied everywhere" 3
          (List.length t.Doctor.applies);
        Alcotest.(check (option int)) "ack" (Some 1100) t.Doctor.ack_time;
        (* stage table covers the whole path *)
        let names = List.map (fun s -> s.Doctor.stage) r.Doctor.stages in
        List.iter
          (fun n ->
            Alcotest.(check bool) ("stage " ^ n) true (List.mem n names))
          [
            "submit->bcast";
            "bcast->rx (dissemination)";
            "propose->decide (consensus)";
            "decide->apply";
            "apply->ack";
          ]);
    test "doctor: flags an injected stuck consensus instance" (fun () ->
        (* node 1 proposed instance 2, nobody ever decided it, yet
           instance 3 decided everywhere: instance 2 is stuck *)
        let fls =
          healthy_cluster
            ~extra:(fun i fl ->
              if i = 1 then
                Flight.record fl ~time:150 ~node:1 ~group:0 ~boot:1
                  ~stage:Flight.propose ~trace:0 ~a:2 ~b:1)
            ()
        in
        let r = analyze_cluster fls in
        Alcotest.(check bool) "anomalous" true (Doctor.has_anomalies r);
        match
          List.find_opt
            (fun a -> a.Doctor.code = "stuck-instance")
            r.Doctor.anomalies
        with
        | None -> Alcotest.fail "stuck-instance not flagged"
        | Some a ->
          Alcotest.(check bool) "names the instance" true
            (Astring.String.is_infix ~affix:"instance 2" a.Doctor.detail));
    test "doctor: flags a dedup violation, excuses state-transfer holes"
      (fun () ->
        let dup =
          healthy_cluster
            ~extra:(fun i fl ->
              if i = 2 then
                (* same boot applies the same sampled payload twice *)
                Flight.record fl ~time:1500 ~node:2 ~group:0 ~boot:1
                  ~stage:Flight.apply ~trace:(Trace_ctx.make ~node:0 ~stamp:1)
                  ~a:5 ~b:0)
            ()
        in
        let r = analyze_cluster dup in
        Alcotest.(check bool) "dedup flagged" true
          (List.exists
             (fun a -> a.Doctor.code = "dedup-violation")
             r.Doctor.anomalies));
    test "doctor: lease-overlap excuses a state-transfer jump" (fun () ->
        (* node 2 observes Claim(0) then a Lease renewal for node 1; only
           a state-transfer jump in between (which adopted node 1's Claim
           without applying it) makes that legitimate *)
        let observe ~jump =
          healthy_cluster
            ~extra:(fun i fl ->
              if i = 2 then begin
                let rec_ ~time ~stage ~a ~b =
                  Flight.record fl ~time ~node:2 ~group:0 ~boot:1 ~stage
                    ~trace:0 ~a ~b
                in
                rec_ ~time:1200 ~stage:Flight.lease ~a:0 ~b:3;
                if jump then rec_ ~time:1300 ~stage:Flight.stjump ~a:3 ~b:9;
                rec_ ~time:1400 ~stage:Flight.lease ~a:1 ~b:1
              end)
            ()
        in
        let overlaps fls =
          List.filter
            (fun a -> a.Doctor.code = "lease-overlap")
            (analyze_cluster fls).Doctor.anomalies
        in
        Alcotest.(check int) "jump excuses the new holder" 0
          (List.length (overlaps (observe ~jump:true)));
        Alcotest.(check int) "no jump: flagged" 1
          (List.length (overlaps (observe ~jump:false))));
    test "doctor: a leader crash reads as suspicion, then the next decide"
      (fun () ->
        let cluster =
          Cluster.create (Factory.make Protocol.paper_alternative) ~seed:44 ~n:3
            ~flight:(fun ~node:_ -> Flight.create ~cap:8192 ())
            ()
        in
        let rng = Rng.create 4444 in
        let count =
          Workload.open_loop cluster ~rng ~senders:[ 1; 2 ] ~start:1_000
            ~stop:200_000 ~mean_gap:1_000 ()
        in
        Cluster.at cluster 100_000 (fun () -> Cluster.crash cluster 0);
        Alcotest.(check bool) "survivors quiesced" true
          (Cluster.run_until cluster ~until:100_000_000
             ~pred:(fun () ->
               Cluster.all_caught_up cluster ~among:[ 1; 2 ] ~count ())
             ());
        with_dir (fun base ->
            for i = 0 to 2 do
              write_dump base i (Cluster.flight cluster i)
            done;
            match Doctor.analyze ~dir:base () with
            | Error e -> Alcotest.failf "doctor: %s" e
            | Ok r ->
              List.iter
                (fun i ->
                  match
                    List.find_opt
                      (fun f ->
                        f.Doctor.ff_node = i && f.Doctor.ff_suspect
                        && f.Doctor.ff_peer = 0)
                      r.Doctor.fd_flips
                  with
                  | None -> Alcotest.failf "node %d never suspected node 0" i
                  | Some f ->
                    Alcotest.(check bool) "suspected after the crash" true
                      (f.Doctor.ff_time > 100_000);
                    Alcotest.(check bool) "decided again after it" true
                      (f.Doctor.ff_next_decide <> None))
                [ 1; 2 ];
              Alcotest.(check bool) "rendered" true
                (Astring.String.is_infix ~affix:"suspects node 0 (epoch 0)"
                   (Doctor.render r))));
    test "doctor: errors on a directory with no dumps" (fun () ->
        with_dir (fun base ->
            match Doctor.analyze ~dir:base () with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "accepted empty directory"));
    test "doctor: surfaces per-node flight-ring drops" (fun () ->
        let fls = healthy_cluster () in
        (* overflow node 2's ring so its early history is overwritten *)
        for t = 1 to 300 do
          Flight.record fls.(2) ~time:(2000 + t) ~node:2 ~group:0 ~boot:1
            ~stage:Flight.submit ~trace:0 ~a:t ~b:0
        done;
        let r = analyze_cluster fls in
        let d2 =
          try List.assoc 2 r.Doctor.dropped_by_node with Not_found -> 0
        in
        Alcotest.(check bool) "node 2 dropped events" true (d2 > 0);
        Alcotest.(check int) "others dropped none" 0
          (try List.assoc 0 r.Doctor.dropped_by_node with Not_found -> 0);
        Alcotest.(check bool) "a note warns about the hole" true
          (List.exists
             (fun n -> Astring.String.is_infix ~affix:"overwrote" n)
             r.Doctor.notes));
  ]

(* ---- the online order sentinel, end to end ---- *)

module History = Abcast_sim.History
module Keys = Abcast_consensus.Consensus_intf.Keys
module Batch = Abcast_core.Batch
module Wire = Abcast_util.Wire

let audit_tests =
  [
    test
      "sentinel: reordered apply stream trips the live audit; doctor \
       --audit names the node"
      (fun () ->
        (* node 1 crashes, one decided multi-stream batch in its
           consensus log is rewritten reversed behind the protocol's
           back, and its replay applies it — a genuine total-order
           violation its healthy peers must catch via the piggybacked
           order certificates *)
        let cluster =
          Cluster.create
            (Factory.make Protocol.paper_alternative)
            ~seed:42 ~n:3
            ~flight:(fun ~node:_ -> Flight.create ~cap:8192 ())
            ()
        in
        let rng = Rng.create 4242 in
        ignore
          (Workload.open_loop cluster ~rng ~senders:[ 0; 1; 2 ] ~start:1_000
             ~stop:120_000 ~mean_gap:300 ());
        (* two streams in one batch: reversing it transposes
           cross-stream deliveries (a same-stream pair would only
           gap-skip back into order) *)
        let multi_stream = function
          | [] -> false
          | (p : Payload.t) :: rest ->
            List.exists
              (fun (q : Payload.t) ->
                q.id.origin <> p.id.origin || q.id.boot <> p.id.boot)
              rest
        in
        let rewritten = ref None in
        Cluster.at cluster 60_000 (fun () ->
            Cluster.crash cluster 1;
            rewritten :=
              List.find_map
                (fun key ->
                  match
                    (Keys.field_of_key key, Cluster.read_storage cluster 1 key)
                  with
                  | Some "decision", Some v
                    when multi_stream (Batch.decode v) ->
                    (* [Batch.encode] would re-sort the reversal away *)
                    Cluster.corrupt_storage cluster 1 ~key
                      (Wire.to_string
                         (Wire.write_list Payload.write)
                         (List.rev (Batch.decode v)));
                    Some key
                  | _ -> None)
                (Cluster.storage_keys cluster 1 Keys.prefix));
        Cluster.at cluster 61_000 (fun () -> Cluster.recover cluster 1);
        (* the log rewrite can leave node 1 permanently short (its
           gap-skipped payloads may never be re-proposed), so only the
           healthy majority is required to quiesce, on every broadcast
           the cluster accepted (none while node 1 was down) *)
        let ok =
          Cluster.run_until cluster ~until:400_000_000
            ~pred:(fun () ->
              Cluster.now cluster > 120_000
              && Cluster.all_caught_up cluster ~among:[ 0; 2 ]
                   ~count:(List.length (Cluster.sent cluster))
                   ())
            ()
        in
        Alcotest.(check bool) "healthy majority quiesced" true ok;
        Alcotest.(check bool) "a multi-stream decision was rewritten" true
          (!rewritten <> None);
        let m = Cluster.metrics cluster in
        let diverged =
          List.fold_left
            (fun acc i -> acc + Metrics.get m ~node:i "audit_diverged")
            0 [ 0; 1; 2 ]
        in
        Alcotest.(check bool) "sentinel tripped live" true (diverged > 0);
        with_dir (fun base ->
            for i = 0 to 2 do
              write_dump base i (Cluster.flight cluster i)
            done;
            match Doctor.analyze ~audit:true ~dir:base () with
            | Error e -> Alcotest.failf "doctor: %s" e
            | Ok r ->
              Alcotest.(check bool) "doctor flags the divergence" true
                (List.exists
                   (fun a ->
                     a.Doctor.code = "audit-diverged"
                     || a.Doctor.code = "order-divergence")
                   r.Doctor.anomalies);
              Alcotest.(check bool) "and pinpoints node 1" true
                (List.exists
                   (fun a ->
                     (a.Doctor.code = "audit-diverged"
                     || a.Doctor.code = "order-divergence")
                     && Astring.String.is_infix ~affix:"node 1"
                          a.Doctor.detail)
                   r.Doctor.anomalies)));
    test "sentinel: a healthy run keeps every chain agreeing" (fun () ->
        let cluster =
          Cluster.create (Factory.make Protocol.paper_alternative) ~seed:43 ~n:3
            ~flight:(fun ~node:_ -> Flight.create ~cap:8192 ())
            ()
        in
        let rng = Rng.create 4343 in
        let count =
          Workload.open_loop cluster ~rng ~senders:[ 0; 1; 2 ] ~start:1_000
            ~stop:120_000 ~mean_gap:300 ()
        in
        let ok =
          Cluster.run_until cluster ~until:400_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
            ()
        in
        Alcotest.(check bool) "run quiesced" true ok;
        let m = Cluster.metrics cluster in
        List.iter
          (fun i ->
            Alcotest.(check int)
              (Printf.sprintf "node %d never diverged" i)
              0
              (Metrics.get m ~node:i "audit_diverged"))
          [ 0; 1; 2 ];
        with_dir (fun base ->
            for i = 0 to 2 do
              write_dump base i (Cluster.flight cluster i)
            done;
            match Doctor.analyze ~audit:true ~dir:base () with
            | Error e -> Alcotest.failf "doctor: %s" e
            | Ok r ->
              Alcotest.(check bool) "no order anomalies" false
                (List.exists
                   (fun a ->
                     a.Doctor.code = "audit-diverged"
                     || a.Doctor.code = "order-divergence")
                   r.Doctor.anomalies)));
    test "history: records roundtrip through the ABHI file" (fun () ->
        with_dir (fun base ->
            let path = Filename.concat base "c.history" in
            let h = History.create ~path in
            let evs =
              [
                {
                  History.client = 0;
                  kind = History.kind_write;
                  key = 0;
                  seq = 1;
                  t_inv = 100;
                  t_resp = 250;
                  value = 1;
                  ok = true;
                };
                {
                  History.client = 3;
                  kind = History.kind_lin;
                  key = 0;
                  seq = 0;
                  t_inv = 300;
                  t_resp = 420;
                  value = 1;
                  ok = true;
                };
                {
                  History.client = 5;
                  kind = History.kind_stale;
                  key = 2;
                  seq = 0;
                  t_inv = 500;
                  t_resp = 510;
                  value = -1;
                  ok = false;
                };
              ]
            in
            List.iter (History.record h) evs;
            Alcotest.(check int) "count" 3 (History.events h);
            History.close h;
            (match History.load_file path with
            | Error e -> Alcotest.failf "load: %s" e
            | Ok got ->
              Alcotest.(check bool) "roundtrip" true (got = evs));
            (* torn tail: truncate mid-record, the prefix survives *)
            let full = In_channel.with_open_bin path In_channel.input_all in
            let torn = String.sub full 0 (String.length full - 3) in
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc torn);
            match History.load_file path with
            | Error e -> Alcotest.failf "torn load: %s" e
            | Ok got ->
              Alcotest.(check int) "intact prefix kept" 2 (List.length got)));
    test "doctor --audit: catches a linearizable read that missed an \
          acked write"
      (fun () ->
        with_dir (fun base ->
            Array.iteri (fun i fl -> write_dump base i fl) (healthy_cluster ());
            let h = History.create ~path:(Filename.concat base "c.history") in
            (* client 0's write acked at t=100; client 1 then invokes a
               lin read at t=200 and sees nothing: real-time order broken *)
            History.record h
              {
                History.client = 0;
                kind = History.kind_write;
                key = 0;
                seq = 1;
                t_inv = 50;
                t_resp = 100;
                value = 1;
                ok = true;
              };
            History.record h
              {
                History.client = 1;
                kind = History.kind_lin;
                key = 0;
                seq = 0;
                t_inv = 200;
                t_resp = 260;
                value = 0;
                ok = true;
              };
            History.close h;
            match Doctor.analyze ~audit:true ~dir:base () with
            | Error e -> Alcotest.failf "doctor: %s" e
            | Ok r ->
              (match r.Doctor.audit with
              | None -> Alcotest.fail "no audit summary"
              | Some a ->
                Alcotest.(check int) "one history" 1 a.Doctor.au_histories;
                Alcotest.(check int) "one lin read" 1 a.Doctor.au_lin_reads);
              Alcotest.(check bool) "stale lin read flagged" true
                (List.exists
                   (fun a -> a.Doctor.code = "stale-lin-read")
                   r.Doctor.anomalies)));
    test "doctor --audit: a consistent history passes" (fun () ->
        with_dir (fun base ->
            Array.iteri (fun i fl -> write_dump base i fl) (healthy_cluster ());
            let h = History.create ~path:(Filename.concat base "c.history") in
            History.record h
              {
                History.client = 0;
                kind = History.kind_write;
                key = 0;
                seq = 1;
                t_inv = 50;
                t_resp = 100;
                value = 1;
                ok = true;
              };
            History.record h
              {
                History.client = 1;
                kind = History.kind_lin;
                key = 0;
                seq = 0;
                t_inv = 200;
                t_resp = 260;
                value = 1;
                ok = true;
              };
            History.close h;
            match Doctor.analyze ~audit:true ~dir:base () with
            | Error e -> Alcotest.failf "doctor: %s" e
            | Ok r ->
              Alcotest.(check bool) "no stale-lin-read" false
                (List.exists
                   (fun a -> a.Doctor.code = "stale-lin-read")
                   r.Doctor.anomalies)));
  ]

let suite =
  ( "observability",
    histogram_tests @ trace_tests @ stage_tests @ flight_tests @ doctor_tests
    @ audit_tests @ live_tests
    @ List.map QCheck_alcotest.to_alcotest qcheck_props )
