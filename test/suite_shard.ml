(* Sharded broadcast groups: the mux combinator, its wire framing, the
   group-scoped metrics/storage views, and the two system-level claims
   of the sharding design — per-group delivery equivalence with isolated
   single-group stacks, and cross-shard fault isolation. *)

open Helpers
module Proto = Abcast_core.Proto
module Vclock = Abcast_core.Vclock
module Wire = Abcast_util.Wire
module Kv = Abcast_apps.Kv
module Partitioned_kv = Abcast_apps.Partitioned_kv

let sharded ?route ~shards () =
  Factory.sharded ?route ~shards (Factory.make Protocol.paper_basic)

(* --- units: combinator shape and wire framing ----------------------- *)

let unit_tests =
  [
    test "shards=1 bypasses the mux entirely" (fun () ->
        let stack = Factory.make Protocol.paper_basic in
        let module P = (val Factory.sharded ~shards:1 stack) in
        Alcotest.(check int) "shards" 1 P.shards;
        Alcotest.(check bool) "no mux suffix" false
          (String.length P.name > 2
          && String.sub P.name (String.length P.name - 2) 2 = "x1"));
    test "mux name and shard count" (fun () ->
        let module P = (val sharded ~shards:4 ()) in
        Alcotest.(check int) "shards" 4 P.shards;
        Alcotest.(check bool) "name carries /x4" true
          (Astring.String.is_suffix ~affix:"/x4" P.name));
    test "read_msg rejects an out-of-range group tag" (fun () ->
        let module P = (val sharded ~shards:4 ()) in
        let w = Wire.writer () in
        Wire.write_uvarint w 7;
        Alcotest.(check bool) "decode fails" true
          (Option.is_none (P.decode_msg (Wire.contents w))));
    test "mux broadcast routes deterministically by payload" (fun () ->
        let cluster = Cluster.create (sharded ~shards:3 ()) ~seed:11 ~n:3 () in
        (* Cluster.broadcast pins groups explicitly; the stack-level hash
           route is what abcast-sim's default workload uses. Check its
           determinism at the module level. *)
        ignore cluster;
        let r = Abcast_core.Shard.default_route in
        Alcotest.(check int) "stable" (r "hello") (r "hello"));
    test "group surface: range checks and whole-stack aggregates" (fun () ->
        List.iter
          (fun stack ->
            let cluster = Cluster.create stack ~seed:3 ~n:3 () in
            let shards = Cluster.shards cluster in
            let groups = List.init shards Fun.id in
            for j = 0 to 19 do
              ignore
                (Cluster.broadcast cluster ~group:(j mod shards)
                   ~node:(j mod 3) (Printf.sprintf "v%d" j))
            done;
            ignore
              (Cluster.run_until cluster ~until:400_000_000
                 ~pred:(fun () -> Cluster.all_caught_up cluster ~count:20 ())
                 ());
            List.iter
              (fun group ->
                let rejects what f =
                  match f () with
                  | () -> Alcotest.failf "%s accepted group %d" what group
                  | exception Invalid_argument _ -> ()
                in
                rejects "broadcast" (fun () ->
                    ignore (Cluster.broadcast cluster ~group ~node:0 "x"));
                rejects "round" (fun () ->
                    ignore (Cluster.round ~group cluster 0));
                rejects "delivered_count" (fun () ->
                    ignore (Cluster.delivered_count ~group cluster 0));
                rejects "delivered_tail" (fun () ->
                    ignore (Cluster.delivered_tail ~group cluster 0));
                rejects "delivery_vc" (fun () ->
                    ignore (Cluster.delivery_vc ~group cluster 0));
                rejects "unordered_count" (fun () ->
                    ignore (Cluster.unordered_count ~group cluster 0)))
              [ -1; shards ];
            for i = 0 to 2 do
              let whole_is_sum what read =
                Alcotest.(check int) what
                  (List.fold_left (fun acc g -> acc + read (Some g)) 0 groups)
                  (read None)
              in
              let ids l = List.map (fun (p : Payload.t) -> p.id) l in
              whole_is_sum "round" (fun group -> Cluster.round ?group cluster i);
              whole_is_sum "delivered_count" (fun group ->
                  Cluster.delivered_count ?group cluster i);
              whole_is_sum "unordered_count" (fun group ->
                  Cluster.unordered_count ?group cluster i);
              Alcotest.(check int) "all delivered" 20
                (Cluster.delivered_count cluster i);
              Alcotest.(check bool) "delivered_tail in group order" true
                (ids (Cluster.delivered_tail cluster i)
                = List.concat_map
                    (fun group -> ids (Cluster.delivered_tail ~group cluster i))
                    groups);
              Alcotest.(check bool) "delivery_vc is group 0's" true
                (Vclock.streams (Cluster.delivery_vc cluster i)
                = Vclock.streams (Cluster.delivery_vc ~group:0 cluster i))
            done)
          [ Factory.make Protocol.paper_basic; sharded ~shards:4 () ]);
  ]

(* --- units: group-scoped metrics and storage views ------------------ *)

let scoping_tests =
  [
    test "metrics: group views intern prefixed series, readers aggregate"
      (fun () ->
        let m = Metrics.create () in
        let g0 = Metrics.scoped m (Metrics.group_prefix 0) in
        let g2 = Metrics.scoped m (Metrics.group_prefix 2) in
        Metrics.add g0 ~node:0 "msgs" 3;
        Metrics.add g2 ~node:0 "msgs" 4;
        Metrics.observe g0 ~node:0 "lat" 10.0;
        Metrics.observe g2 ~node:0 "lat" 30.0;
        Alcotest.(check int) "aggregate sum" 7 (Metrics.sum m "msgs");
        Alcotest.(check int) "one group" 4 (Metrics.sum m "g2/msgs");
        Alcotest.(check int) "aggregate samples" 2
          (Metrics.count_samples m "lat");
        Alcotest.(check int) "one group's samples" 1
          (Metrics.count_samples m "g2/lat");
        Alcotest.(check (pair int string)) "split" (2, "lat")
          (Metrics.split_group "g2/lat");
        Alcotest.(check (pair int string)) "split of bare name" (0, "lat")
          (Metrics.split_group "lat"));
    test "storage: group views tag keys in one shared backend" (fun () ->
        let m = Metrics.create () in
        let s = Storage.create ~metrics:m ~node:0 () in
        let g0 = Storage.scoped s ~prefix:(Metrics.group_prefix 0) in
        let g1 = Storage.scoped s ~prefix:(Metrics.group_prefix 1) in
        Storage.write g0 ~layer:"t" ~key:"k" "zero";
        Storage.write g1 ~layer:"t" ~key:"k" "one";
        Alcotest.(check (option string)) "g0 view" (Some "zero")
          (Storage.read g0 "k");
        Alcotest.(check (option string)) "g1 view" (Some "one")
          (Storage.read g1 "k");
        Alcotest.(check (option string)) "physical key" (Some "one")
          (Storage.read s "g1/k");
        Alcotest.(check (list string)) "view prefix listing strips the tag"
          [ "k" ]
          (Storage.keys_with_prefix g1 "k");
        Storage.delete g0 ~layer:"t" "k";
        Alcotest.(check bool) "g0 deleted" false (Storage.mem g0 "k");
        Alcotest.(check bool) "g1 untouched" true (Storage.mem g1 "k"));
  ]

(* --- the Need pull cap ---------------------------------------------- *)

let need_cap_tests =
  [
    test "need_cap: a node far behind pulls every payload in capped Needs"
      (fun () ->
        (* Every Cons frame is dropped, so nothing is ordered and the
           payloads stay in Unordered; no gossip tick ships the full set,
           so node 1 gets node 0's broadcasts only by pulling them, at
           most 128 ids per Need. *)
        let module P = Protocol.Make (Abcast_consensus.Paxos) in
        let cfg = { Protocol.paper_basic with gossip_full_every = max_int } in
        let eng = Engine.create ~seed:5 ~n:3 () in
        let protos = Array.make 3 None in
        let pulls = ref [] in
        for i = 0 to 2 do
          Engine.set_behavior eng i (fun io ->
              let p = P.create cfg io ~on_deliver:ignore in
              protos.(i) <- Some p;
              fun ~src m ->
                match m with
                | P.Cons _ -> ()
                | P.Need { ids } ->
                  if src = 1 then pulls := List.length ids :: !pulls;
                  P.handler p ~src m
                | _ -> P.handler p ~src m)
        done;
        Engine.start_all eng;
        let get i = Option.get protos.(i) in
        let missing = 300 in
        Engine.at eng 1_000 (fun () ->
            for j = 1 to missing do
              ignore (P.broadcast (get 0) (string_of_int j))
            done);
        Alcotest.(check bool) "node 1 holds every payload" true
          (Engine.run_until eng ~until:1_000_000
             ~pred:(fun () -> P.unordered_count (get 1) = missing)
             ());
        Alcotest.(check int) "nothing was ordered" 0
          (P.delivered_count (get 1));
        Alcotest.(check bool)
          (Printf.sprintf "at least 3 Needs (%d)" (List.length !pulls))
          true
          (List.length !pulls >= 3);
        List.iter
          (fun k ->
            Alcotest.(check bool)
              (Printf.sprintf "a Need of %d ids stays within 128" k)
              true (k <= 128))
          !pulls);
  ]

(* --- end-to-end: sharded runs deliver per group --------------------- *)

(* Deterministic send plan for one seed: (time, node, group, data).
   Injected via [Cluster.at] with an explicit group so the same per-group
   plan can be replayed on isolated single-group clusters. *)
let send_plan ~seed ~shards =
  let rng = Rng.create (seed + 77) in
  let t = ref 1_000 in
  let plan = ref [] in
  while !t < 40_000 do
    let node = if Rng.int rng 2 = 0 then 0 else 2 in
    let group = Rng.int rng shards in
    let data = Printf.sprintf "s%d-t%d" seed !t in
    plan := (!t, node, group, data) :: !plan;
    t := !t + 900 + Rng.int rng 900
  done;
  List.rev !plan

let inject cluster plan =
  List.iter
    (fun (at, node, group, data) ->
      Cluster.at cluster at (fun () ->
          ignore (Cluster.broadcast cluster ~group ~node data)))
    plan

let crash_schedule cluster =
  Cluster.at cluster 12_000 (fun () -> Cluster.crash cluster 1);
  Cluster.at cluster 30_000 (fun () -> Cluster.recover cluster 1)

(* [count] is the number of broadcasts the plan will inject (all senders
   stay up at injection times, so scheduled = injected); computing it
   from [Cluster.sent] up front would be zero and quiesce vacuously. *)
let quiesce ~what ~count cluster =
  let ok =
    Cluster.run_until cluster ~until:400_000_000
      ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
      ()
  in
  if not ok then Alcotest.failf "%s: did not quiesce" what

(* Fingerprint of one group's deliveries at node 0: the repo's
   established delivery-equivalence notion (count + vclock streams). *)
let fingerprint ?group cluster =
  ( Cluster.delivered_count ?group cluster 0,
    Vclock.streams (Cluster.delivery_vc ?group cluster 0) )

(* One muxed run (S groups over one cluster) vs S isolated runs (one
   single-group cluster per group, same per-group plan, same crash
   schedule, same adversarial network settings): at quiescence each
   group's delivered set must be identical — sharing the transport, the
   WAL and the process with other groups must not change what a group
   delivers. *)
let equivalence_run ~seed =
  let shards = 3 in
  let plan = send_plan ~seed ~shards in
  let muxed =
    let net = Net.create ~loss:0.12 ~dup:0.05 () in
    let cluster = Cluster.create (sharded ~shards ()) ~seed ~n:3 ~net () in
    crash_schedule cluster;
    inject cluster plan;
    quiesce
      ~what:(Printf.sprintf "muxed seed %d" seed)
      ~count:(List.length plan) cluster;
    check_ok
      (Printf.sprintf "muxed properties (seed %d)" seed)
      (Checks.all ~cluster ~good:[ 0; 1; 2 ] ());
    List.init shards (fun g -> fingerprint ~group:g cluster)
  in
  let isolated =
    List.init shards (fun g ->
        let net = Net.create ~loss:0.12 ~dup:0.05 () in
        let cluster =
          Cluster.create (Factory.make Protocol.paper_basic) ~seed ~n:3 ~net ()
        in
        crash_schedule cluster;
        let plan_g =
          List.filter_map
            (fun (at, node, group, data) ->
              if group = g then Some (at, node, 0, data) else None)
            plan
        in
        inject cluster plan_g;
        quiesce
          ~what:(Printf.sprintf "isolated g%d seed %d" g seed)
          ~count:(List.length plan_g) cluster;
        fingerprint cluster)
  in
  List.iteri
    (fun g (mc, ms) ->
      let ic, is = List.nth isolated g in
      Alcotest.(check int)
        (Printf.sprintf "seed %d g%d: delivered count" seed g)
        ic mc;
      if ms <> is then
        Alcotest.failf "seed %d g%d: vclock streams differ" seed g)
    muxed

(* Cross-shard isolation: drop every frame of group 0 on the wire (on
   top of loss and a crash/recovery) and the other groups must still
   deliver everything and satisfy the properties; group 0 must deliver
   nothing (its consensus can never reach a majority). *)
let drop_group0 (stack : Proto.t) : Proto.t =
  let module S = (val stack : Proto.S) in
  (module struct
    include S

    let name = S.name ^ "-g0-partitioned"
    let handler t ~src m = if S.msg_group m <> 0 then S.handler t ~src m
  end : Proto.S)

let isolation_test () =
  let shards = 3 in
  let seed = 5 in
  let plan = send_plan ~seed ~shards in
  let net = Net.create ~loss:0.10 () in
  let cluster =
    Cluster.create (drop_group0 (sharded ~shards ())) ~seed ~n:3 ~net ()
  in
  crash_schedule cluster;
  inject cluster plan;
  let surviving g = List.length (Cluster.sent_in cluster ~group:g) in
  let ok =
    Cluster.run_until cluster ~until:400_000_000
      ~pred:(fun () ->
        List.for_all
          (fun g ->
            Cluster.all_caught_up cluster ~group:g ~count:(surviving g) ())
          [ 1; 2 ])
      ()
  in
  Alcotest.(check bool) "groups 1,2 quiesce despite group 0 partition" true ok;
  List.iter
    (fun g ->
      check_ok
        (Printf.sprintf "group %d properties" g)
        (Checks.all ~group:g ~cluster ~good:[ 0; 1; 2 ] ()))
    [ 1; 2 ];
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "group 0 ordered nothing at node %d" i)
        0
        (Cluster.delivered_count ~group:0 cluster i))
    [ 0; 1; 2 ]

(* Partitioned KV over a sharded stack: commands route to the group
   owning their key; rebuilding each node's replica set from its
   group-wise delivery tails must converge (equal digests) and reflect
   per-key last-writer-wins order. *)
let partitioned_kv_test () =
  let shards = 4 in
  let n = 3 in
  let cluster = Cluster.create (sharded ~shards ()) ~seed:31 ~n () in
  let rng = Rng.create 3131 in
  let t = ref 1_000 in
  let last_write = Hashtbl.create 64 in
  let c = ref 0 in
  while !t < 30_000 do
    let key = Printf.sprintf "k%d" (Rng.int rng 40) in
    let value = Printf.sprintf "v%d" !c in
    let group = Partitioned_kv.shard_of_key ~shards key in
    (* Pin each key to one sending node: total order does not promise
       real-time order across senders, but per-sender streams deliver in
       order, so the last scheduled write of a key is its final value. *)
    let node = Hashtbl.hash ("owner-" ^ key) mod n in
    let at = !t in
    Cluster.at cluster at (fun () ->
        ignore
          (Cluster.broadcast cluster ~group ~node
             (Kv.set_cmd ~key ~value)));
    Hashtbl.replace last_write key value;
    incr c;
    t := !t + 200 + Rng.int rng 400
  done;
  quiesce ~what:"partitioned kv" ~count:!c cluster;
  let replicas =
    List.init n (fun i ->
        let pkv = Partitioned_kv.create ~shards in
        for g = 0 to shards - 1 do
          List.iter
            (fun pl -> Partitioned_kv.deliver pkv ~group:g pl)
            (Cluster.delivered_tail ~group:g cluster i)
        done;
        pkv)
  in
  let d0 = Partitioned_kv.digest (List.hd replicas) in
  List.iteri
    (fun i pkv ->
      Alcotest.(check string)
        (Printf.sprintf "digest at node %d" i)
        d0
        (Partitioned_kv.digest pkv))
    replicas;
  (* per-key order: one key lives in one group, so the last scheduled
     write is the final value everywhere *)
  Hashtbl.iter
    (fun key value ->
      Alcotest.(check (option string))
        (Printf.sprintf "last write of %s" key)
        (Some value)
        (Partitioned_kv.get (List.hd replicas) key))
    last_write

let system_tests =
  [
    slow_test "20-seed sweep: muxed groups == isolated single-group runs"
      (fun () ->
        for seed = 1 to 20 do
          equivalence_run ~seed
        done);
    slow_test "cross-shard isolation: a partitioned group stalls alone"
      isolation_test;
    test "partitioned kv: convergent digests, per-key order" partitioned_kv_test;
    test "sharded run labels per-group metric series" (fun () ->
        let cluster = Cluster.create (sharded ~shards:2 ()) ~seed:9 ~n:3 () in
        List.iter
          (fun g ->
            Cluster.at cluster 1_000 (fun () ->
                ignore (Cluster.broadcast cluster ~group:g ~node:0 "x")))
          [ 0; 1 ];
        quiesce ~what:"metrics run" ~count:2 cluster;
        let m = Cluster.metrics cluster in
        List.iter
          (fun g ->
            let series = Printf.sprintf "g%d/lat_deliver" g in
            Alcotest.(check bool)
              (series ^ " recorded")
              true
              (Metrics.count_samples m series > 0))
          [ 0; 1 ];
        Alcotest.(check int) "bare name aggregates both groups"
          (Metrics.count_samples m "g0/lat_deliver"
          + Metrics.count_samples m "g1/lat_deliver")
          (Metrics.count_samples m "lat_deliver"));
  ]

let suite =
  ( "shard",
    unit_tests @ scoping_tests @ need_cap_tests @ system_tests )
