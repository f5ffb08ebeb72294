(* Quickstart: three processes, a handful of A-broadcasts, one identical
   delivery order everywhere.

     dune exec examples/quickstart.exe

   This is the smallest complete use of the public API: pick a stack from
   [Factory], put it on a simulated [Cluster], broadcast, run, inspect. *)

module Factory = Abcast_core.Factory
module Protocol = Abcast_core.Protocol
module Payload = Abcast_core.Payload
module Cluster = Abcast_harness.Cluster

let () =
  (* A 3-process cluster running the paper's basic protocol (Fig. 2) over
     crash-recovery Paxos. Everything is driven by the seed. *)
  let cluster =
    Cluster.create (Factory.make Protocol.paper_basic) ~seed:2026 ~n:3 ()
  in

  (* Each process atomically broadcasts a greeting. The calls race: the
     total order that comes out is decided by the protocol, not by
     wall-clock send order. *)
  List.iteri
    (fun i (node, text) ->
      Cluster.at cluster (1_000 + (i * 700)) (fun () ->
          ignore (Cluster.broadcast cluster ~node text)))
    [
      (0, "alpha says hi");
      (1, "beta says hi");
      (2, "gamma says hi");
      (0, "alpha again");
      (1, "beta again");
    ];

  (* Run the simulation until every process has delivered all five. *)
  let done_ () = Cluster.all_caught_up cluster ~count:5 () in
  let ok = Cluster.run_until cluster ~until:10_000_000 ~pred:done_ () in
  assert ok;

  Printf.printf "after %d simulated µs:\n\n" (Cluster.now cluster);
  for node = 0 to 2 do
    Printf.printf "process %d delivered (round %d):\n" node
      (Cluster.round cluster node);
    List.iter
      (fun (p : Payload.t) ->
        Printf.printf "  %-10s %s\n"
          (Format.asprintf "%a" Payload.pp_id p.id)
          p.data)
      (Cluster.delivered_tail cluster node);
    print_newline ()
  done;
  Printf.printf "all three orders are identical: that is Atomic Broadcast.\n"
