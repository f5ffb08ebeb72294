(* Benchmark harness entry point.

   Default: print every experiment table E1-E9 (simulated metrics; see
   EXPERIMENTS.md for the paper-claim vs measured record), then the
   bechamel micro-benchmarks.

   Flags:
     --only E4 [E5 ...]   run only the listed experiments
     --micro              run only the micro-benchmarks
     --quick              shrink workloads (~4x faster, coarser numbers)
     --json               write BENCH_PR10.json (machine-readable snapshot:
                          causal-tracing cost sweep sampling off..1/1,
                          live service SLO sweep read-mode x shards x
                          clients, shard-scaling sweep S in {1,2,4,8},
                          throughput sweep gossip-vs-ring x window,
                          events/sec, quiescence wall time, gossip bytes,
                          durable-storage throughput, flight-ring overhead,
                          stage-latency p50s, micro ns/op) and exit *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if List.mem "--json" args then begin
    Json_bench.run ();
    exit 0
  end;
  let micro_only = List.mem "--micro" args in
  Experiments.quick := List.mem "--quick" args;
  let selected =
    List.filter (fun a -> List.mem_assoc a Experiments.all) args
  in
  if not micro_only then begin
    let todo =
      if selected = [] then Experiments.all
      else List.filter (fun (n, _) -> List.mem n selected) Experiments.all
    in
    List.iter
      (fun (name, f) ->
        let t0 = Sys.time () in
        f ();
        Printf.printf "(%s took %.2fs host time)\n" name (Sys.time () -. t0))
      todo
  end;
  if micro_only || selected = [] then Micro.run ()
