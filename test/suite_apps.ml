(* Tests for the replicated applications built on the broadcast layer. *)

open Helpers
module Kv = Abcast_apps.Kv
module Bank = Abcast_apps.Bank
module Du = Abcast_apps.Deferred_update
module Cfa = Abcast_apps.Consensus_from_abcast

let payload data = Payload.make { origin = 0; boot = 0; seq = 0 } data

let smr_unit_tests =
  [
    test "smr: deliver applies commands in order" (fun () ->
        let r = Kv.Replica.create () in
        Kv.Replica.deliver r (payload (Kv.set_cmd ~key:"a" ~value:"1"));
        Kv.Replica.deliver r (payload (Kv.set_cmd ~key:"a" ~value:"2"));
        Alcotest.(check (option string)) "last write wins" (Some "2")
          (Kv.get (Kv.Replica.state r) "a");
        Alcotest.(check int) "applied" 2 (Kv.Replica.applied r));
    test "smr: checkpoint/install roundtrip" (fun () ->
        let r = Kv.Replica.create () in
        Kv.Replica.deliver r (payload (Kv.set_cmd ~key:"k" ~value:"v"));
        let hooks = Kv.Replica.hooks r in
        let blob = hooks.checkpoint () in
        let r2 = Kv.Replica.create () in
        (Kv.Replica.hooks r2).install blob;
        Alcotest.(check (option string)) "state carried" (Some "v")
          (Kv.get (Kv.Replica.state r2) "k");
        Alcotest.(check int) "applied carried" 1 (Kv.Replica.applied r2));
    test "smr: foreign commands are ignored deterministically" (fun () ->
        let r = Kv.Replica.create () in
        Kv.Replica.deliver r (payload "not a command");
        Alcotest.(check int) "size" 0 (Kv.size (Kv.Replica.state r));
        Alcotest.(check int) "still counted" 1 (Kv.Replica.applied r));
  ]

let kv_tests =
  [
    test "kv: set/del commands" (fun () ->
        let r = Kv.Replica.create () in
        Kv.Replica.deliver r (payload (Kv.set_cmd ~key:"x" ~value:"1"));
        Kv.Replica.deliver r (payload (Kv.set_cmd ~key:"y" ~value:"2"));
        Kv.Replica.deliver r (payload (Kv.del_cmd ~key:"x"));
        Alcotest.(check (option string)) "deleted" None (Kv.get (Kv.Replica.state r) "x");
        Alcotest.(check (list (pair string string)))
          "bindings"
          [ ("y", "2") ]
          (Kv.bindings (Kv.Replica.state r)));
    test "kv: digests distinguish different contents" (fun () ->
        let r1 = Kv.Replica.create () and r2 = Kv.Replica.create () in
        Kv.Replica.deliver r1 (payload (Kv.set_cmd ~key:"a" ~value:"1"));
        Kv.Replica.deliver r2 (payload (Kv.set_cmd ~key:"a" ~value:"2"));
        Alcotest.(check bool) "differ" true
          (Kv.digest (Kv.Replica.state r1) <> Kv.digest (Kv.Replica.state r2)));
    test "kv: replicated run converges under a crash" (fun () ->
        let replicas = Array.make 3 None in
        let stack =
          Factory.make
            ~app_factory:(Kv.Replica.factory (fun i r -> replicas.(i) <- Some r))
            { Protocol.paper_alternative with checkpoint_period = Some 20_000 }
        in
        let cluster = Cluster.create stack ~seed:41 ~n:3 () in
        for j = 0 to 29 do
          Cluster.at cluster (1_000 + (j * 1_200)) (fun () ->
              ignore
                (Cluster.broadcast cluster ~node:(j mod 3)
                   (Kv.set_cmd ~key:(string_of_int (j mod 5))
                      ~value:(string_of_int j))))
        done;
        Cluster.at cluster 15_000 (fun () -> Cluster.crash cluster 1);
        Cluster.at cluster 60_000 (fun () -> Cluster.recover cluster 1);
        (* broadcasts landing on the downed node are skipped: target the
           number actually injected *)
        let ok =
          Cluster.run_until cluster ~until:60_000_000
            ~pred:(fun () ->
              Cluster.now cluster > 60_000
              && Cluster.all_caught_up cluster
                   ~count:(List.length (Cluster.sent cluster))
                   ())
            ()
        in
        Alcotest.(check bool) "caught up" true ok;
        let d i =
          match replicas.(i) with
          | Some r -> Kv.digest (Kv.Replica.state r)
          | None -> Alcotest.fail "missing replica"
        in
        Alcotest.(check string) "0=1" (d 0) (d 1);
        Alcotest.(check string) "1=2" (d 1) (d 2));
  ]

let bank_tests =
  [
    test "bank: deposits and transfers" (fun () ->
        let r = Bank.Replica.create () in
        Bank.Replica.deliver r (payload (Bank.deposit_cmd ~account:0 ~amount:100));
        Bank.Replica.deliver r (payload (Bank.transfer_cmd ~src:0 ~dst:1 ~amount:30));
        Alcotest.(check int) "a0" 70 (Bank.balance (Bank.Replica.state r) 0);
        Alcotest.(check int) "a1" 30 (Bank.balance (Bank.Replica.state r) 1);
        Alcotest.(check int) "total" 100 (Bank.total (Bank.Replica.state r)));
    test "bank: overdraw rejected deterministically" (fun () ->
        let r = Bank.Replica.create () in
        Bank.Replica.deliver r (payload (Bank.deposit_cmd ~account:0 ~amount:10));
        Bank.Replica.deliver r (payload (Bank.transfer_cmd ~src:0 ~dst:1 ~amount:50));
        Alcotest.(check int) "unchanged" 10 (Bank.balance (Bank.Replica.state r) 0);
        Alcotest.(check int) "nothing arrived" 0 (Bank.balance (Bank.Replica.state r) 1));
    test "bank: invalid accounts and amounts ignored" (fun () ->
        let r = Bank.Replica.create () in
        Bank.Replica.deliver r (payload (Bank.deposit_cmd ~account:(-1) ~amount:5));
        Bank.Replica.deliver r (payload (Bank.deposit_cmd ~account:0 ~amount:(-5)));
        Alcotest.(check int) "total" 0 (Bank.total (Bank.Replica.state r)));
    test "bank: replicated totals conserved under faults" (fun () ->
        let replicas = Array.make 3 None in
        let stack =
          Factory.make
            ~app_factory:(Bank.Replica.factory (fun i r -> replicas.(i) <- Some r))
            { Protocol.paper_alternative with checkpoint_period = Some 25_000 }
        in
        let cluster = Cluster.create stack ~seed:43 ~n:3 () in
        let rng = Rng.create 17 in
        (* seed money, then a storm of random transfers *)
        Cluster.at cluster 500 (fun () ->
            ignore
              (Cluster.broadcast cluster ~node:0
                 (Bank.deposit_cmd ~account:0 ~amount:1_000)));
        for j = 1 to 40 do
          Cluster.at cluster (2_000 + (j * 900)) (fun () ->
              let src = Rng.int rng Bank.accounts
              and dst = Rng.int rng Bank.accounts in
              ignore
                (Cluster.broadcast cluster ~node:(j mod 3)
                   (Bank.transfer_cmd ~src ~dst ~amount:(1 + Rng.int rng 50))))
        done;
        Cluster.at cluster 20_000 (fun () -> Cluster.crash cluster 2);
        Cluster.at cluster 70_000 (fun () -> Cluster.recover cluster 2);
        let ok =
          Cluster.run_until cluster ~until:60_000_000
            ~pred:(fun () ->
              Cluster.now cluster > 70_000
              && Cluster.all_caught_up cluster
                   ~count:(List.length (Cluster.sent cluster))
                   ())
            ()
        in
        Alcotest.(check bool) "caught up" true ok;
        List.iter
          (fun i ->
            match replicas.(i) with
            | Some r ->
              Alcotest.(check int)
                (Printf.sprintf "total at %d" i)
                1_000
                (Bank.total (Bank.Replica.state r))
            | None -> Alcotest.fail "missing replica")
          [ 0; 1; 2 ]);
  ]

let du_tests =
  [
    test "deferred-update: non-conflicting transactions commit" (fun () ->
        let db = Du.create () in
        let t1 = Du.Txn.begin_ db in
        ignore (Du.Txn.read t1 "a");
        Du.Txn.write t1 "a" 1;
        let t2 = Du.Txn.begin_ db in
        ignore (Du.Txn.read t2 "b");
        Du.Txn.write t2 "b" 2;
        Du.deliver db (payload (Du.Txn.payload t1));
        Du.deliver db (payload (Du.Txn.payload t2));
        Alcotest.(check int) "commits" 2 (Du.committed db);
        Alcotest.(check int) "aborts" 0 (Du.aborted db);
        Alcotest.(check (pair int int)) "a" (1, 1) (Du.read db "a"));
    test "deferred-update: certification aborts the loser" (fun () ->
        let db = Du.create () in
        (* both transactions read key "x" at version 0 and write it *)
        let t1 = Du.Txn.begin_ db in
        ignore (Du.Txn.read t1 "x");
        Du.Txn.write t1 "x" 10;
        let t2 = Du.Txn.begin_ db in
        ignore (Du.Txn.read t2 "x");
        Du.Txn.write t2 "x" 20;
        Du.deliver db (payload (Du.Txn.payload t1));
        Du.deliver db (payload (Du.Txn.payload t2));
        Alcotest.(check int) "one commit" 1 (Du.committed db);
        Alcotest.(check int) "one abort" 1 (Du.aborted db);
        Alcotest.(check (pair int int)) "winner's write" (10, 1) (Du.read db "x"));
    test "deferred-update: read-your-writes inside a txn" (fun () ->
        let db = Du.create () in
        let t = Du.Txn.begin_ db in
        Du.Txn.write t "k" 5;
        Alcotest.(check int) "own write" 5 (Du.Txn.read t "k"));
    test "deferred-update: blind writes never abort" (fun () ->
        let db = Du.create () in
        let t1 = Du.Txn.begin_ db in
        Du.Txn.write t1 "x" 1;
        let t2 = Du.Txn.begin_ db in
        Du.Txn.write t2 "x" 2;
        Du.deliver db (payload (Du.Txn.payload t1));
        Du.deliver db (payload (Du.Txn.payload t2));
        Alcotest.(check int) "both" 2 (Du.committed db);
        Alcotest.(check (pair int int)) "second wins" (2, 2) (Du.read db "x"));
    test "deferred-update: replicas certify identically" (fun () ->
        (* Two replicas receive the same delivery order: decisions and
           digests must match even with interleaved conflicts. *)
        let a = Du.create () and b = Du.create () in
        let mk db key =
          let t = Du.Txn.begin_ db in
          ignore (Du.Txn.read t key);
          Du.Txn.write t key 7;
          Du.Txn.payload t
        in
        let stream = [ mk a "x"; mk a "x"; mk a "y" ] in
        List.iter (fun p -> Du.deliver a (payload p)) stream;
        List.iter (fun p -> Du.deliver b (payload p)) stream;
        Alcotest.(check int) "commits equal" (Du.committed a) (Du.committed b);
        Alcotest.(check int) "aborts equal" (Du.aborted a) (Du.aborted b);
        Alcotest.(check string) "digest equal" (Du.digest a) (Du.digest b));
    test "deferred-update: end-to-end over the broadcast stack" (fun () ->
        let dbs = Array.init 3 (fun _ -> Du.create ()) in
        (* Use the basic stack and feed every replica from deliveries. *)
        let stack = Factory.make Protocol.paper_basic in
        let cluster = Cluster.create stack ~seed:44 ~n:3 () in
        (* replicas fed by polling delivered tails at the end (total order
           makes replay equivalent); conflicting txns from 2 clients *)
        let t0 = Du.Txn.begin_ dbs.(0) in
        ignore (Du.Txn.read t0 "acct");
        Du.Txn.write t0 "acct" 111;
        let t1 = Du.Txn.begin_ dbs.(1) in
        ignore (Du.Txn.read t1 "acct");
        Du.Txn.write t1 "acct" 222;
        Cluster.at cluster 1_000 (fun () ->
            ignore (Cluster.broadcast cluster ~node:0 (Du.Txn.payload t0)));
        Cluster.at cluster 1_100 (fun () ->
            ignore (Cluster.broadcast cluster ~node:1 (Du.Txn.payload t1)));
        let ok =
          Cluster.run_until cluster ~until:10_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count:2 ())
            ()
        in
        Alcotest.(check bool) "delivered" true ok;
        (* apply each node's delivered sequence to its replica *)
        Array.iteri
          (fun i db ->
            List.iter (Du.deliver db) (Cluster.delivered_tail cluster i))
          dbs;
        Alcotest.(check int) "one commit" 1 (Du.committed dbs.(0));
        Alcotest.(check int) "one abort" 1 (Du.aborted dbs.(0));
        Alcotest.(check string) "replicas agree" (Du.digest dbs.(0)) (Du.digest dbs.(1));
        Alcotest.(check string) "replicas agree 2" (Du.digest dbs.(1)) (Du.digest dbs.(2)));
  ]

let cfa_tests =
  [
    test "consensus-from-abcast: first delivery decides" (fun () ->
        let c = Cfa.create () in
        Cfa.deliver c (payload (Cfa.encode_proposal ~instance:"i" ~value:"a"));
        Cfa.deliver c (payload (Cfa.encode_proposal ~instance:"i" ~value:"b"));
        Alcotest.(check (option string)) "first" (Some "a") (Cfa.decision c ~instance:"i"));
    test "consensus-from-abcast: instances are independent" (fun () ->
        let c = Cfa.create () in
        Cfa.deliver c (payload (Cfa.encode_proposal ~instance:"x" ~value:"1"));
        Cfa.deliver c (payload (Cfa.encode_proposal ~instance:"y" ~value:"2"));
        Alcotest.(check (option string)) "x" (Some "1") (Cfa.decision c ~instance:"x");
        Alcotest.(check (option string)) "y" (Some "2") (Cfa.decision c ~instance:"y"));
    test "consensus-from-abcast: agreement over the real stack (§6.1)" (fun () ->
        let stack = Factory.make Protocol.paper_basic in
        let cluster = Cluster.create stack ~seed:45 ~n:3 () in
        (* all three propose concurrently for the same instance *)
        for i = 0 to 2 do
          Cluster.at cluster (1_000 + i) (fun () ->
              ignore
                (Cluster.broadcast cluster ~node:i
                   (Cfa.encode_proposal ~instance:"slot"
                      ~value:(Printf.sprintf "v%d" i))))
        done;
        let ok =
          Cluster.run_until cluster ~until:10_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count:3 ())
            ()
        in
        Alcotest.(check bool) "delivered" true ok;
        let decision i =
          let c = Cfa.create () in
          List.iter (Cfa.deliver c) (Cluster.delivered_tail cluster i);
          Option.get (Cfa.decision c ~instance:"slot")
        in
        let d0 = decision 0 in
        Alcotest.(check bool) "validity" true (List.mem d0 [ "v0"; "v1"; "v2" ]);
        Alcotest.(check string) "agree 0-1" d0 (decision 1);
        Alcotest.(check string) "agree 1-2" (decision 1) (decision 2));
  ]

module Mc = Abcast_apps.Multicast

let mc_tests =
  [
    test "multicast: members deliver, outsiders skip" (fun () ->
        let a = Mc.create ~member_of:[ 0 ] and b = Mc.create ~member_of:[ 1 ] in
        let m = payload (Mc.encode ~dst:[ 0 ] "for group 0") in
        Mc.deliver a m;
        Mc.deliver b m;
        Alcotest.(check int) "a got it" 1 (Mc.delivered_count a);
        Alcotest.(check int) "b skipped" 0 (Mc.delivered_count b);
        Alcotest.(check int) "b counted the skip" 1 (Mc.skipped b));
    test "multicast: overlapping destinations reach both" (fun () ->
        let a = Mc.create ~member_of:[ 0 ] and b = Mc.create ~member_of:[ 1; 2 ] in
        let m = payload (Mc.encode ~dst:[ 0; 2 ] "both") in
        Mc.deliver a m;
        Mc.deliver b m;
        Alcotest.(check int) "a" 1 (Mc.delivered_count a);
        Alcotest.(check int) "b" 1 (Mc.delivered_count b));
    test "multicast: empty destination rejected" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Multicast.encode: empty destination set")
          (fun () -> ignore (Mc.encode ~dst:[] "x")));
    test "multicast: non-envelope payloads ignored" (fun () ->
        let a = Mc.create ~member_of:[ 0 ] in
        Mc.deliver a (payload "raw bytes");
        Alcotest.(check int) "none" 0 (Mc.delivered_count a));
    test "multicast: global order consistent across distinct groups" (fun () ->
        (* 4 processes; groups: g0 = {0,1}, g1 = {2,3}; process 1 is also
           in g1. Multicasts to g0, g1 and {g0,g1} flow through the real
           stack; every pair of processes that both deliver two messages
           must deliver them in the same relative order. *)
        let membership = [| [ 0 ]; [ 0; 1 ]; [ 1 ]; [ 1 ] |] in
        let views = Array.map (fun gs -> Mc.create ~member_of:gs) membership in
        let cluster =
          Cluster.create (Factory.make Protocol.paper_basic) ~seed:90 ~n:4 ()
        in
        let send at node dst body =
          Cluster.at cluster at (fun () ->
              ignore (Cluster.broadcast cluster ~node (Mc.encode ~dst body)))
        in
        send 1_000 0 [ 0 ] "a:g0";
        send 1_100 2 [ 1 ] "b:g1";
        send 1_200 1 [ 0; 1 ] "c:both";
        send 1_300 3 [ 1 ] "d:g1";
        send 1_400 0 [ 0 ] "e:g0";
        let ok =
          Cluster.run_until cluster ~until:20_000_000
            ~pred:(fun () -> Cluster.all_caught_up cluster ~count:5 ())
            ()
        in
        Alcotest.(check bool) "ordered" true ok;
        Array.iteri
          (fun i view ->
            List.iter (Mc.deliver view) (Cluster.delivered_tail cluster i))
          views;
        (* pairwise consistency on common messages *)
        let seqs = Array.map (fun v -> List.map snd (Mc.delivered v)) views in
        let consistent a b =
          let common x = List.filter (fun m -> List.mem m b) x in
          common a = List.filter (fun m -> List.mem m a) b
        in
        for i = 0 to 3 do
          for j = i + 1 to 3 do
            Alcotest.(check bool)
              (Printf.sprintf "p%d/p%d consistent" i j)
              true
              (consistent seqs.(i) seqs.(j))
          done
        done;
        (* membership filtering happened (the total order is the
           protocol's choice, so compare as sets) *)
        let sorted l = List.sort compare l in
        Alcotest.(check (list string)) "p0 sees g0 only"
          [ "a:g0"; "c:both"; "e:g0" ]
          (sorted seqs.(0));
        Alcotest.(check (list string)) "p3 sees g1 only"
          [ "b:g1"; "c:both"; "d:g1" ]
          (sorted seqs.(3));
        Alcotest.(check (list string)) "p1 sees both groups"
          [ "a:g0"; "b:g1"; "c:both"; "d:g1"; "e:g0" ]
          (sorted seqs.(1)));
  ]

let suite =
  ( "apps",
    smr_unit_tests @ kv_tests @ bank_tests @ du_tests @ cfa_tests @ mc_tests )
