(* Shared scaffolding for the test suites. *)

module Rng = Abcast_util.Rng
module Engine = Abcast_sim.Engine
module Net = Abcast_sim.Net
module Storage = Abcast_sim.Storage
module Metrics = Abcast_sim.Metrics
module Payload = Abcast_core.Payload
module Protocol = Abcast_core.Protocol
module Stable = Abcast_core.Stable
module Factory = Abcast_core.Factory
module Cluster = Abcast_harness.Cluster
module Checks = Abcast_harness.Checks
module Workload = Abcast_harness.Workload

let test name f = Alcotest.test_case name `Quick f

let slow_test name f = Alcotest.test_case name `Slow f

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

(* [f] gets a fresh path [<tmp>/<prefix>-<pid>-<n>] (not created), which
   is removed with everything under it once [f] returns or raises. *)
let temp_dirs = ref 0

let with_temp_dir prefix f =
  incr temp_dirs;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !temp_dirs)
  in
  Fun.protect ~finally:(fun () -> Abcast_store.Durable.rm_rf dir) (fun () -> f dir)

(* Run an open-loop workload on a cluster of [n] nodes of the given stack
   and require that all (or [among]) nodes deliver everything and that the
   four properties hold over [good]. Returns the cluster for further
   assertions. *)
let run_workload ?(n = 3) ?(seed = 1) ?(msgs = 20) ?net ?(until = 10_000_000)
    ?good ?among stack =
  let cluster = Cluster.create stack ~seed ~n ?net () in
  let rng = Rng.create (seed + 1000) in
  let count =
    Workload.open_loop cluster ~rng ~senders:(List.init n Fun.id) ~start:1_000
      ~stop:(1_000 + (msgs * 800))
      ~mean_gap:800 ()
  in
  let good = match good with Some g -> g | None -> List.init n Fun.id in
  let caught_up () = Cluster.all_caught_up cluster ?among ~count () in
  let ok = Cluster.run_until cluster ~until ~pred:caught_up () in
  if not ok then
    Alcotest.failf "workload did not quiesce: %d/%d delivered at node0"
      (Cluster.delivered_count cluster 0) count;
  check_ok "properties" (Checks.all ~cluster ~good ());
  (cluster, count)

let ids_of tail = List.map (fun (p : Payload.t) -> p.Payload.id) tail
