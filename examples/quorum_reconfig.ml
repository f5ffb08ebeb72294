(* Quorum-based replication bridged with atomic broadcast (paper §6.3).

     dune exec examples/quorum_reconfig.exe

   Reads and writes touch only a *quorum* of replicas — not the broadcast
   layer, not the full group — while the vote assignment itself (the
   thing that must never be ambiguous) is changed through atomic
   broadcast, so every replica steps through the same sequence of
   configurations. Operations from a superseded configuration are fenced
   by the epoch number. *)

module Factory = Abcast_core.Factory
module Protocol = Abcast_core.Protocol
module Cluster = Abcast_harness.Cluster
module Q = Abcast_apps.Quorum

let show_read what = function
  | Ok (r : Q.Client.read_result) ->
    Printf.printf "  %-34s -> %s (version %d, from replicas %s)\n" what
      (Option.value ~default:"<empty>" r.value)
      r.version
      (String.concat "," (List.map string_of_int r.responders))
  | Error e -> Printf.printf "  %-34s -> REJECTED: %s\n" what e

let () =
  (* Three replicas; reconfigurations flow through a real broadcast
     cluster; data ops are plain quorum calls against replica state. *)
  let stores = Array.init 3 (fun _ -> Q.Store.create ()) in
  let cluster =
    Cluster.create (Factory.make Protocol.paper_basic) ~seed:6 ~n:3 ()
  in
  let sync () =
    (* apply every replica's delivered reconfigurations *)
    Array.iteri
      (fun i s ->
        let seen = Q.Store.epoch s in
        List.iteri
          (fun j p -> if j >= seen then Q.Store.deliver s p)
          (Cluster.delivered_tail cluster i))
      stores
  in

  (* Epoch 1: majority voting, one vote each. *)
  let c1 = { Q.weights = [| 1; 1; 1 |]; read_quorum = 2; write_quorum = 2 } in
  Cluster.at cluster 1_000 (fun () ->
      ignore (Cluster.broadcast cluster ~node:0 (Q.Store.reconfig_cmd c1)));
  ignore
    (Cluster.run_until cluster ~until:10_000_000
       ~pred:(fun () -> Cluster.all_caught_up cluster ~count:1 ())
       ());
  sync ();
  Printf.printf "epoch %d installed: weights 1/1/1, r=2, w=2\n"
    (Q.Store.epoch stores.(0));

  (* A write through a 2-replica write quorum {0,1}; replica 2 stays stale. *)
  let responses quorum = List.map (fun i -> (i, Q.Store.local_read stores.(i))) quorum in
  (match Q.Client.read c1 ~epoch:1 ~responses:(responses [ 0; 1 ]) with
  | Ok r ->
    let version = Q.Client.write_version r in
    List.iter
      (fun i ->
        ignore (Q.Store.apply_write stores.(i) ~epoch:1 ~version "balance=100"))
      [ 0; 1 ];
    Printf.printf "write 'balance=100' @v%d applied to write quorum {0,1}\n"
      version
  | Error e -> failwith e);

  (* Any read quorum must see it, even one overlapping only at replica 1. *)
  show_read "read from quorum {1,2}" (Q.Client.read c1 ~epoch:1 ~responses:(responses [ 1; 2 ]));
  show_read "read from quorum {0,2}" (Q.Client.read c1 ~epoch:1 ~responses:(responses [ 0; 2 ]));
  show_read "read from {2} alone (no quorum)"
    (Q.Client.read c1 ~epoch:1 ~responses:(responses [ 2 ]));

  (* Epoch 2: shift weight to replica 0 (say, the reliable machine). Now
     replica 0 alone is a read AND write quorum. *)
  let c2 = { Q.weights = [| 3; 1; 1 |]; read_quorum = 3; write_quorum = 3 } in
  Cluster.after cluster 1_000 (fun () ->
      ignore (Cluster.broadcast cluster ~node:1 (Q.Store.reconfig_cmd c2)));
  ignore
    (Cluster.run_until cluster ~until:20_000_000
       ~pred:(fun () -> Cluster.all_caught_up cluster ~count:2 ())
       ());
  sync ();
  Printf.printf "\nepoch %d installed: weights 3/1/1, r=3, w=3\n"
    (Q.Store.epoch stores.(0));
  show_read "read from {0} alone (3 votes)"
    (Q.Client.read c2 ~epoch:2 ~responses:(responses [ 0 ]));
  show_read "read from {1,2} (2 votes only)"
    (Q.Client.read c2 ~epoch:2 ~responses:(responses [ 1; 2 ]));

  (* A client still living in epoch 1 is fenced. *)
  show_read "stale epoch-1 client reading {0,1}"
    (Q.Client.read c1 ~epoch:1 ~responses:(responses [ 0; 1 ]));
  Printf.printf
    "\nthe broadcast serialized both reconfigurations identically at every\n\
     replica; quorum data operations never touched the broadcast layer.\n"
