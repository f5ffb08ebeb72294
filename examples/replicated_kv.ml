(* A replicated key-value store that survives a crash.

     dune exec examples/replicated_kv.exe

   The store is state-machine replication over the alternative protocol
   (Figs. 3-5): the application state itself is the checkpoint (§5.2), so
   a recovering replica reinstalls a KV snapshot instead of replaying
   every update since the beginning of time — and the stable-storage
   footprint stays bounded. *)

module Factory = Abcast_core.Factory
module Protocol = Abcast_core.Protocol
module Cluster = Abcast_harness.Cluster
module Kv = Abcast_apps.Kv
module Metrics = Abcast_sim.Metrics

let () =
  let replicas = Array.make 3 None in
  let stack =
    Factory.make
      ~app_factory:(Kv.Replica.factory (fun i r -> replicas.(i) <- Some r))
      {
        Protocol.paper_alternative with
        checkpoint_period = Some 25_000;
        delta = Some 3;
      }
  in
  let cluster = Cluster.create stack ~seed:7 ~n:3 () in

  (* 60 writes over 60 simulated ms, spread over whoever is up. Node 2
     crashes a third of the way in and recovers near the end. *)
  for j = 0 to 59 do
    Cluster.at cluster (1_000 + (j * 1_000)) (fun () ->
        ignore
          (Cluster.broadcast cluster
             ~node:(j mod 3)
             (Kv.set_cmd
                ~key:(Printf.sprintf "user:%d" (j mod 8))
                ~value:(Printf.sprintf "update-%d" j))))
  done;
  Cluster.at cluster 20_000 (fun () ->
      Printf.printf "[%6d µs] crashing replica 2\n" (Cluster.now cluster);
      Cluster.crash cluster 2);
  Cluster.at cluster 55_000 (fun () ->
      Printf.printf "[%6d µs] recovering replica 2\n" (Cluster.now cluster);
      Cluster.recover cluster 2);

  let injected () = List.length (Cluster.sent cluster) in
  let ok =
    Cluster.run_until cluster ~until:60_000_000
      ~pred:(fun () ->
        Cluster.now cluster > 62_000
        && Cluster.all_caught_up cluster ~count:(injected ()) ())
      ()
  in
  assert ok;

  Printf.printf "\n%d writes applied everywhere after %d µs\n\n" (injected ())
    (Cluster.now cluster);
  for i = 0 to 2 do
    match replicas.(i) with
    | Some r ->
      let state = Kv.Replica.state r in
      Printf.printf "replica %d: %d keys, digest %s, %d commands applied\n" i
        (Kv.size state) (Kv.digest state)
        (Kv.Replica.applied r)
    | None -> assert false
  done;
  (match replicas.(0) with
  | Some r ->
    Printf.printf "\nsample reads at replica 0:\n";
    List.iter
      (fun k ->
        Printf.printf "  %s -> %s\n" k
          (Option.value ~default:"<absent>" (Kv.get (Kv.Replica.state r) k)))
      [ "user:0"; "user:5"; "user:7" ]
  | None -> assert false);
  Printf.printf
    "\nstable storage at replica 2: %d bytes retained (bounded by the app \
     checkpoint; %d state transfer(s) used to catch up)\n"
    (Cluster.retained_bytes cluster 2)
    (Metrics.sum (Cluster.metrics cluster) "state_transfers_applied")
