(* Crash-recovery mechanics, side by side: replay vs state transfer.

     dune exec examples/crash_recovery.exe

   The same fault scenario runs twice:

   - with the basic protocol (Fig. 2), the recovering process rebuilds its
     state by replaying the consensus proposal/decision log and re-running
     the round it was in;
   - with the alternative protocol (Figs. 3-4), periodic checkpoints and
     the state-transfer path (Δ) let it skip the missed consensus
     instances entirely.

   The timeline below is p2's flight recorder: the protocol's own
   lifecycle events (boot, replay, state-transfer jump, catch-up). *)

module Factory = Abcast_core.Factory
module Protocol = Abcast_core.Protocol
module Cluster = Abcast_harness.Cluster
module Workload = Abcast_harness.Workload
module Metrics = Abcast_sim.Metrics
module Flight = Abcast_sim.Flight
module Rng = Abcast_util.Rng

let scenario name stack =
  Printf.printf "=== %s ===\n" name;
  let flight ~node:_ = Flight.create ~cap:4096 () in
  let cluster = Cluster.create stack ~seed:99 ~n:3 ~flight () in
  let rng = Rng.create 4 in
  Cluster.at cluster 2_000 (fun () -> Cluster.crash cluster 2);
  let count =
    Workload.open_loop cluster ~rng ~senders:[ 0; 1 ] ~start:3_000 ~stop:80_000
      ~mean_gap:1_000 ()
  in
  Cluster.at cluster 90_000 (fun () -> Cluster.recover cluster 2);
  let ok =
    Cluster.run_until cluster ~until:100_000_000
      ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
      ()
  in
  assert ok;
  let m = Cluster.metrics cluster in
  Printf.printf
    "  %d msgs; caught up at %d µs (%d µs after recovery)\n\
    \  replayed rounds at p2: %d | state transfers: %d | rounds total: %d\n"
    count (Cluster.now cluster)
    (Cluster.now cluster - 90_000)
    (Metrics.get m ~node:2 "replay_rounds")
    (Metrics.sum m "state_transfers_applied")
    (Cluster.round cluster 0);
  Printf.printf "  p2's own timeline around recovery:\n";
  let lifecycle = Flight.[ boot; replay_done; stjump; caught_up ] in
  List.iter
    (fun (e : Flight.event) ->
      if e.e_time >= 90_000 && List.mem e.e_stage lifecycle then
        Format.printf "    %a@." Flight.pp_event e)
    (Flight.events (Cluster.flight cluster 2));
  (* bounce p2 once more, now that it holds the full history locally: the
     basic protocol replays every logged round from its own log (no
     network needed); the alternative starts from its checkpoint *)
  Cluster.crash cluster 2;
  Cluster.recover cluster 2;
  Cluster.run cluster ~until:(Cluster.now cluster + 500_000);
  Printf.printf
    "  second bounce (local log now complete): %d rounds re-applied from \
     p2's own stable storage\n\n"
    (Metrics.get m ~node:2 "replay_rounds")

let () =
  scenario "basic protocol: recovery replays the whole history"
    (Factory.make Protocol.paper_basic);
  scenario "alternative protocol: checkpoint + state transfer skip it"
    (Factory.make
       {
         Protocol.paper_alternative with
         checkpoint_period = Some 20_000;
         delta = Some 3;
       });
  Printf.printf
    "Both recover to the same total order; the alternative pays a few log\n\
     writes per checkpoint to make recovery O(1) instead of O(history).\n"
