(* Crash-recovery mechanics, side by side: replay vs state transfer.

     dune exec examples/crash_recovery.exe

   The same fault scenario runs twice:

   - with the basic protocol (Fig. 2), the recovering process rebuilds its
     state by replaying the consensus proposal/decision log and re-running
     the round it was in;
   - with the alternative protocol (Figs. 3-4), periodic checkpoints and
     the state-transfer path (Δ) let it skip the missed consensus
     instances entirely.

   The trace timeline below is the protocol's own narration. *)

module Factory = Abcast_core.Factory
module Protocol = Abcast_core.Protocol
module Cluster = Abcast_harness.Cluster
module Workload = Abcast_harness.Workload
module Metrics = Abcast_sim.Metrics
module Trace = Abcast_sim.Trace
module Rng = Abcast_util.Rng

let scenario name stack =
  Printf.printf "=== %s ===\n" name;
  let trace = Trace.create ~enabled:true () in
  let cluster = Cluster.create stack ~seed:99 ~n:3 ~trace () in
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
  List.iter
    (fun (e : Trace.entry) ->
      if e.node = 2 && e.time >= 90_000 then
        Printf.printf "    [%7d] %s\n" e.time e.text)
    (Trace.entries trace);
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
