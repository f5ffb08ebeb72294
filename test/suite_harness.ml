(* Tests for the harness itself: the property-check oracle must actually
   detect violations (otherwise E9's "zero violations" means nothing),
   and the table/workload utilities must behave. *)

open Helpers
module Table = Abcast_harness.Table

let id origin boot seq = { Payload.origin; boot; seq }

let pl i = Payload.make i "d"

let expect_error what = function
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: violation not detected" what

let expect_ok what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: spurious violation: %s" what e

let checks_tests =
  [
    test "integrity accepts distinct ids" (fun () ->
        expect_ok "distinct"
          (Checks.integrity [ pl (id 0 0 0); pl (id 0 0 1); pl (id 1 0 0) ]));
    test "integrity rejects a duplicate" (fun () ->
        expect_error "dup"
          (Checks.integrity [ pl (id 0 0 0); pl (id 1 0 0); pl (id 0 0 0) ]));
    test "total order accepts prefixes" (fun () ->
        let a = [ pl (id 0 0 0); pl (id 1 0 0) ] in
        let b = [ pl (id 0 0 0) ] in
        expect_ok "prefix" (Checks.total_order [ a; b; [] ]));
    test "total order rejects divergent sequences" (fun () ->
        let a = [ pl (id 0 0 0); pl (id 1 0 0) ] in
        let b = [ pl (id 1 0 0); pl (id 0 0 0) ] in
        expect_error "diverge" (Checks.total_order [ a; b ]));
    test "total order rejects same-length different content" (fun () ->
        let a = [ pl (id 0 0 0) ] and b = [ pl (id 1 0 0) ] in
        expect_error "content" (Checks.total_order [ a; b ]));
    test "validity rejects unknown messages" (fun () ->
        expect_error "spurious"
          (Checks.validity ~known:(fun _ -> false) [ pl (id 0 0 0) ]);
        expect_ok "known"
          (Checks.validity ~known:(fun _ -> true) [ pl (id 0 0 0) ]));
    test "termination: completed broadcast must be everywhere" (fun () ->
        let m = id 0 0 0 in
        expect_error "missing at one good process"
          (Checks.termination ~completed:[ m ]
             ~good_sequences:[ [ pl m ]; [] ]);
        expect_ok "present everywhere"
          (Checks.termination ~completed:[ m ]
             ~good_sequences:[ [ pl m ]; [ pl m ] ]));
    test "termination: delivered-somewhere must be delivered-everywhere"
      (fun () ->
        let m = id 0 0 0 in
        expect_error "uniformity"
          (Checks.termination ~completed:[]
             ~good_sequences:[ [ pl m ]; [] ]));
    test "termination: empty obligations pass" (fun () ->
        expect_ok "empty" (Checks.termination ~completed:[] ~good_sequences:[ []; [] ]));
  ]

let table_tests =
  let text = Table.cell_text in
  [
    test "num inserts thousands separators" (fun () ->
        Alcotest.(check string) "1,234,567" "1,234,567" (text (Table.num 1_234_567));
        Alcotest.(check string) "small" "42" (text (Table.num 42));
        Alcotest.(check string) "negative" "-1,000" (text (Table.num (-1_000)));
        Alcotest.(check string) "zero" "0" (text (Table.num 0)));
    test "flt formats and handles nan" (fun () ->
        Alcotest.(check string) "2 dec" "3.14" (text (Table.flt 3.14159));
        Alcotest.(check string) "0 dec" "3" (text (Table.flt ~dec:0 3.14159));
        Alcotest.(check string) "nan" "-" (text (Table.flt nan)));
    test "ratio" (fun () ->
        Alcotest.(check string) "3x" "3.00" (text (Table.ratio 90.0 30.0));
        Alcotest.(check string) "div0" "-" (text (Table.ratio 1.0 0.0)));
    test "to_json: raw numbers, null nan, escaped text, full-width rows"
      (fun () ->
        let t =
          {
            Table.title = "t";
            header = [ "a"; "b"; "c" ];
            rows =
              [
                [ Table.num 1_234_567; Table.flt nan; Table.Text {|say "hi" \ bye|} ];
                [ Table.num 0; Table.flt ~dec:0 0.1; Table.ratio 1.0 0.0 ];
              ];
          }
        in
        Alcotest.(check string) "json"
          {|{"title": "t", "header": ["a", "b", "c"], "rows": [[1234567, null, "say \"hi\" \\ bye"], [0, 0.1, null]]}|}
          (Table.to_json t);
        Alcotest.check_raises "short row"
          (Invalid_argument {|Table: a row of "t" is not 3 cells wide|})
          (fun () ->
            ignore (Table.to_json { t with rows = [ [ Table.num 1 ] ] })));
  ]

let workload_tests =
  [
    test "payload has the requested size and is printable" (fun () ->
        let rng = Rng.create 3 in
        let p = Workload.payload rng ~size:100 in
        Alcotest.(check int) "size" 100 (String.length p);
        String.iter
          (fun c ->
            Alcotest.(check bool) "printable" true (Char.code c >= 32 && Char.code c < 127))
          p);
    test "open_loop schedules roughly stop-start/gap broadcasts" (fun () ->
        let cluster =
          Cluster.create (Factory.make Protocol.paper_basic) ~seed:5 ~n:3 ()
        in
        let rng = Rng.create 6 in
        let count =
          Workload.open_loop cluster ~rng ~senders:[ 0; 1; 2 ] ~start:0
            ~stop:100_000 ~mean_gap:1_000 ()
        in
        Alcotest.(check bool)
          (Printf.sprintf "%d in [60;160]" count)
          true
          (count >= 60 && count <= 160));
    test "closed_loop issues exactly total broadcasts" (fun () ->
        let cluster =
          Cluster.create (Factory.make Protocol.paper_basic) ~seed:7 ~n:3 ()
        in
        let rng = Rng.create 8 in
        Workload.closed_loop cluster ~rng ~node:0 ~total:10 ();
        let done_ () = Cluster.delivered_count cluster 0 >= 10 in
        Alcotest.(check bool) "delivered" true
          (Cluster.run_until cluster ~until:60_000_000 ~pred:done_ ());
        Alcotest.(check int) "exactly 10" 10 (List.length (Cluster.sent cluster)));
  ]

let cluster_tests =
  [
    test "broadcast on a down node returns None" (fun () ->
        let cluster =
          Cluster.create (Factory.make Protocol.paper_basic) ~seed:9 ~n:3 ()
        in
        Cluster.crash cluster 1;
        Alcotest.(check bool) "none" true
          (Cluster.broadcast cluster ~node:1 "x" = None);
        Alcotest.(check bool) "up one works" true
          (Cluster.broadcast cluster ~node:0 "x" <> None));
    test "sent tracks completion" (fun () ->
        let cluster =
          Cluster.create (Factory.make Protocol.paper_basic) ~seed:10 ~n:3 ()
        in
        ignore (Cluster.broadcast cluster ~node:0 "x");
        (match Cluster.sent cluster with
        | [ (_, completed) ] -> Alcotest.(check bool) "pending" false completed
        | _ -> Alcotest.fail "one record expected");
        Cluster.run cluster ~until:5_000_000;
        match Cluster.sent cluster with
        | [ (_, completed) ] -> Alcotest.(check bool) "completed" true completed
        | _ -> Alcotest.fail "one record expected");
    test "broadcast_blocks reflects the stack" (fun () ->
        let b =
          Cluster.create (Factory.make Protocol.paper_basic) ~seed:11 ~n:3 ()
        in
        Alcotest.(check bool) "basic blocks" true (Cluster.broadcast_blocks b);
        let a =
          Cluster.create
            (Factory.make
               { Protocol.paper_alternative with early_return = true })
            ~seed:11 ~n:3 ()
        in
        Alcotest.(check bool) "early return does not" false
          (Cluster.broadcast_blocks a));
    test "ever_delivered accumulates across crashes" (fun () ->
        let cluster =
          Cluster.create (Factory.make Protocol.paper_basic) ~seed:12 ~n:3 ()
        in
        ignore (Cluster.broadcast cluster ~node:0 "x");
        Cluster.run cluster ~until:5_000_000;
        Cluster.crash cluster 2;
        Alcotest.(check int) "one id" 1 (List.length (Cluster.ever_delivered cluster)));
  ]

let suite =
  ("harness", checks_tests @ table_tests @ workload_tests @ cluster_tests)
