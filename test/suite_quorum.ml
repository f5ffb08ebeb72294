(* Tests for quorum-based (weighted-voting) replication bridged with
   atomic broadcast (paper §6.3). *)

open Helpers
module Q = Abcast_apps.Quorum

let cfg ?(r = 2) ?(w = 2) weights =
  { Q.weights = Array.of_list weights; read_quorum = r; write_quorum = w }

let payload data = Payload.make { origin = 0; boot = 0; seq = 0 } data

let config_tests =
  [
    test "valid majority config" (fun () ->
        Alcotest.(check bool) "ok" true (Q.valid (cfg [ 1; 1; 1 ])));
    test "read+write must exceed total" (fun () ->
        Alcotest.(check bool) "r+w=total rejected" false
          (Q.valid (cfg ~r:1 ~w:2 [ 1; 1; 1 ])));
    test "writes must intersect writes" (fun () ->
        Alcotest.(check bool) "2w<=total rejected" false
          (Q.valid (cfg ~r:3 ~w:1 [ 1; 1; 1 ];)));
    test "weighted: a heavy replica can be a quorum alone" (fun () ->
        let c = cfg ~r:3 ~w:3 [ 3; 1; 1 ] in
        Alcotest.(check bool) "valid" true (Q.valid c);
        Alcotest.(check bool) "replica 0 reads alone" true (Q.is_read_quorum c [ 0 ]);
        Alcotest.(check bool) "1,2 cannot" false (Q.is_read_quorum c [ 1; 2 ]));
    test "votes_of ignores duplicates and bad indices" (fun () ->
        let c = cfg [ 2; 1; 1 ] in
        Alcotest.(check int) "dedup" 3 (Q.votes_of c [ 0; 0; 1; 7; -1 ]));
    test "zero-weight replica carries nothing" (fun () ->
        let c = cfg ~r:2 ~w:2 [ 2; 1; 0 ] in
        Alcotest.(check bool) "valid" true (Q.valid c);
        Alcotest.(check bool) "alone useless" false (Q.is_read_quorum c [ 2 ]));
  ]

let intersection_prop =
  QCheck.Test.make ~name:"every read quorum intersects every write quorum"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 2 5) (int_range 0 4))
        (pair (int_range 1 20) (int_range 1 20)))
    (fun (weights, (r, w)) ->
      let c = { Q.weights = Array.of_list weights; read_quorum = r; write_quorum = w } in
      QCheck.assume (Q.valid c);
      let n = List.length weights in
      (* enumerate all subsets; for each read-quorum subset and
         write-quorum subset they must share a replica *)
      let subsets = List.init (1 lsl n) Fun.id in
      let members mask = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id) in
      List.for_all
        (fun rm ->
          let rs = members rm in
          (not (Q.is_read_quorum c rs))
          || List.for_all
               (fun wm ->
                 let ws = members wm in
                 (not (Q.is_write_quorum c ws))
                 || List.exists (fun i -> List.mem i ws) rs)
               subsets)
        subsets)

let store_tests =
  [
    test "store: fresh replica holds nothing" (fun () ->
        let s = Q.Store.create () in
        Alcotest.(check bool) "none" true (Q.Store.local_read s = None);
        Alcotest.(check int) "epoch" 0 (Q.Store.epoch s));
    test "store: write then read" (fun () ->
        let s = Q.Store.create () in
        Alcotest.(check bool) "accepted" true
          (Q.Store.apply_write s ~epoch:0 ~version:1 "v1");
        Alcotest.(check bool) "read" true
          (Q.Store.local_read s = Some ("v1", 1, 0)));
    test "store: stale version rejected" (fun () ->
        let s = Q.Store.create () in
        ignore (Q.Store.apply_write s ~epoch:0 ~version:2 "v2");
        Alcotest.(check bool) "older rejected" false
          (Q.Store.apply_write s ~epoch:0 ~version:2 "v2'");
        Alcotest.(check bool) "unchanged" true
          (Q.Store.local_read s = Some ("v2", 2, 0)));
    test "store: wrong epoch rejected" (fun () ->
        let s = Q.Store.create () in
        Q.Store.deliver s (payload (Q.Store.reconfig_cmd (cfg [ 1; 1; 1 ])));
        Alcotest.(check int) "epoch bumped" 1 (Q.Store.epoch s);
        Alcotest.(check bool) "old-epoch write rejected" false
          (Q.Store.apply_write s ~epoch:0 ~version:1 "v"));
    test "store: invalid reconfig ignored" (fun () ->
        let s = Q.Store.create () in
        Q.Store.deliver s (payload (Q.Store.reconfig_cmd (cfg ~r:1 ~w:1 [ 1; 1; 1 ])));
        Alcotest.(check int) "epoch unchanged" 0 (Q.Store.epoch s);
        Q.Store.deliver s (payload "garbage");
        Alcotest.(check int) "garbage ignored" 0 (Q.Store.epoch s));
  ]

let client_tests =
  let c3 = cfg [ 1; 1; 1 ] in
  [
    test "client: read picks the highest version in the quorum" (fun () ->
        match
          Q.Client.read c3 ~epoch:0
            ~responses:[ (0, Some ("old", 1, 0)); (1, Some ("new", 2, 0)) ]
        with
        | Ok r ->
          Alcotest.(check (option string)) "value" (Some "new") r.value;
          Alcotest.(check int) "version" 2 r.version;
          Alcotest.(check int) "next write ver" 3 (Q.Client.write_version r)
        | Error e -> Alcotest.fail e);
    test "client: insufficient votes fails" (fun () ->
        Alcotest.(check bool) "error" true
          (Result.is_error
             (Q.Client.read c3 ~epoch:0 ~responses:[ (0, Some ("v", 1, 0)) ])));
    test "client: stale epoch detected" (fun () ->
        Alcotest.(check bool) "error" true
          (Result.is_error
             (Q.Client.read c3 ~epoch:0
                ~responses:[ (0, Some ("v", 1, 1)); (1, None) ])));
    test "client: empty store reads as version 0" (fun () ->
        match Q.Client.read c3 ~epoch:0 ~responses:[ (0, None); (2, None) ] with
        | Ok r ->
          Alcotest.(check (option string)) "none" None r.value;
          Alcotest.(check int) "first write version" 1 (Q.Client.write_version r)
        | Error e -> Alcotest.fail e);
    test "read quorum always sees the latest completed write" (fun () ->
        (* write to a write quorum, read from EVERY read quorum: the
           latest version must always surface (the intersection at work) *)
        let stores = Array.init 3 (fun _ -> Q.Store.create ()) in
        (* two writes to different write quorums *)
        List.iter
          (fun i -> ignore (Q.Store.apply_write stores.(i) ~epoch:0 ~version:1 "w1"))
          [ 0; 1 ];
        List.iter
          (fun i -> ignore (Q.Store.apply_write stores.(i) ~epoch:0 ~version:2 "w2"))
          [ 1; 2 ];
        List.iter
          (fun quorum ->
            let responses =
              List.map (fun i -> (i, Q.Store.local_read stores.(i))) quorum
            in
            match Q.Client.read c3 ~epoch:0 ~responses with
            | Ok r -> Alcotest.(check (option string)) "latest" (Some "w2") r.value
            | Error e -> Alcotest.fail e)
          [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ]; [ 0; 1; 2 ] ]);
  ]

(* End-to-end: reconfiguration ordered by the real broadcast stack acts as
   a consistent barrier at all replicas. *)
let integration_tests =
  [
    test "reconfigurations are serialized by atomic broadcast" (fun () ->
        let stores = Array.init 3 (fun _ -> Q.Store.create ()) in
        let cluster =
          Cluster.create (Factory.make Protocol.paper_basic) ~seed:70 ~n:3 ()
        in
        (* two competing reconfigs from different replicas *)
        let c_a = cfg ~r:2 ~w:2 [ 1; 1; 1 ] in
        let c_b = cfg ~r:3 ~w:3 [ 3; 1; 1 ] in
        Cluster.at cluster 1_000 (fun () ->
            ignore
              (Cluster.broadcast cluster ~node:0 (Q.Store.reconfig_cmd c_a)));
        Cluster.at cluster 1_050 (fun () ->
            ignore
              (Cluster.broadcast cluster ~node:1 (Q.Store.reconfig_cmd c_b)));
        let ok =
          Cluster.run_until cluster ~until:10_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count:2 ())
            ()
        in
        Alcotest.(check bool) "delivered" true ok;
        Array.iteri
          (fun i store ->
            List.iter (Q.Store.deliver store) (Cluster.delivered_tail cluster i))
          stores;
        (* all replicas in the same final epoch with the same config *)
        Array.iter
          (fun s -> Alcotest.(check int) "epoch" 2 (Q.Store.epoch s))
          stores;
        let final = Q.Store.config stores.(0) in
        Array.iter
          (fun s ->
            Alcotest.(check bool) "same config" true (Q.Store.config s = final))
          stores);
  ]

let suite =
  ( "quorum",
    config_tests @ store_tests @ client_tests @ integration_tests
    @ [ QCheck_alcotest.to_alcotest intersection_prop ] )
