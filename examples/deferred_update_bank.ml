(* Deferred-update replication (paper §6.2): optimistic transactions,
   certified in total order.

     dune exec examples/deferred_update_bank.exe

   Two clients run conflicting read-modify-write transactions against
   their local replicas; at commit time each transaction's read versions
   and write set are atomically broadcast. Certification is a
   deterministic function of the delivery order, so every replica commits
   and aborts exactly the same transactions — no atomic commitment
   protocol, no distributed locking. *)

module Factory = Abcast_core.Factory
module Protocol = Abcast_core.Protocol
module Cluster = Abcast_harness.Cluster
module Payload = Abcast_core.Payload
module Du = Abcast_apps.Deferred_update

let () =
  (* One replica per process; deliveries certify transactions. *)
  let dbs = Array.init 3 (fun _ -> Du.create ()) in
  let stack = Factory.make Protocol.paper_basic in
  let cluster = Cluster.create stack ~seed:13 ~n:3 () in

  (* Seed: balance = 100 (a blind write commits unconditionally). *)
  Cluster.at cluster 500 (fun () ->
      let t = Du.Txn.begin_ dbs.(0) in
      Du.Txn.write t "balance" 100;
      ignore (Cluster.broadcast cluster ~node:0 (Du.Txn.payload t)));

  (* Let the seed commit at every replica before the contended phase.
     (Replicas consume their process's delivery sequence.) *)
  let drain () =
    Array.iteri
      (fun i db ->
        let seen = Du.committed db + Du.aborted db in
        let tail = Cluster.delivered_tail cluster i in
        List.iteri (fun j p -> if j >= seen then Du.deliver db p) tail)
      dbs
  in
  Cluster.at cluster 30_000 (fun () ->
      drain ();
      (* Two concurrent withdrawals read the same version of "balance"
         and race: certification must let exactly one through. *)
      let w0 = Du.Txn.begin_ dbs.(0) in
      let b0 = Du.Txn.read w0 "balance" in
      Du.Txn.write w0 "balance" (b0 - 70);
      ignore (Cluster.broadcast cluster ~node:0 (Du.Txn.payload w0));
      let w1 = Du.Txn.begin_ dbs.(1) in
      let b1 = Du.Txn.read w1 "balance" in
      Du.Txn.write w1 "balance" (b1 - 70);
      ignore (Cluster.broadcast cluster ~node:1 (Du.Txn.payload w1));
      Printf.printf
        "two clients both read balance=%d/%d and broadcast 'withdraw 70'\n" b0
        b1);

  let ok =
    Cluster.run_until cluster ~until:10_000_000
      ~pred:(fun () -> Cluster.all_caught_up cluster ~count:3 ())
      ()
  in
  assert ok;
  drain ();

  Printf.printf "\nafter certification at every replica:\n";
  Array.iteri
    (fun i db ->
      let balance, version = Du.read db "balance" in
      Printf.printf
        "  replica %d: balance=%d (version %d), committed=%d aborted=%d \
         digest=%s\n"
        i balance version (Du.committed db) (Du.aborted db) (Du.digest db))
    dbs;
  Printf.printf
    "\nexactly one withdrawal committed, on every replica, without any\n\
     locking: the total order made certification deterministic.\n"
