(* Benchmark harness entry point.

     main.exe [--quick] [--json] [--micro] [NAME ...]

   Runs the named experiments (E1 ... E22 and Micro, the bechamel
   micro-benchmarks; see EXPERIMENTS.md), or all of them when none is
   named. An unknown name exits 2 and lists the known ones.

     --quick   shrink workloads (~4x faster, coarser numbers)
     --micro   run Micro (alone unless names are given)
     --json    print one JSON document instead of text tables:
               {"schema": 11, "experiments": {"E1": [table, ...], ...}},
               each table {"title", "header", "rows"} (Table.to_json)

   Text tables print as each experiment finishes; the JSON document
   prints once every experiment has run. The "(E1 took ...)" host-time
   lines go to stderr, so stdout holds only the tables. A must-hold check
   that fails (E9 violations, E16 fsync order, E20 audit, E22 sentinel)
   raises: the run exits non-zero and --json prints nothing. *)

module Table = Abcast_harness.Table

let () =
  let all = Experiments.all @ [ ("Micro", fun () -> [ Micro.run () ]) ] in
  let json = ref false and names = ref [] in
  List.iter
    (function
      | "--json" -> json := true
      | "--quick" -> Experiments.quick := true
      | "--micro" -> names := "Micro" :: !names
      | name when List.mem_assoc name all -> names := name :: !names
      | arg ->
        Printf.eprintf
          "unknown experiment %S\nknown: %s\nflags: --quick --json --micro\n"
          arg
          (String.concat " " (List.map fst all));
        exit 2)
    (List.tl (Array.to_list Sys.argv));
  let todo =
    if !names = [] then all
    else List.filter (fun (name, _) -> List.mem name !names) all
  in
  let results =
    List.map
      (fun (name, f) ->
        let t0 = Sys.time () in
        let tables = f () in
        if not !json then List.iter Table.print tables;
        Printf.eprintf "(%s took %.2fs host time)\n%!" name (Sys.time () -. t0);
        (name, tables))
      todo
  in
  if !json then
    Printf.printf "{\"schema\": 11, \"experiments\": {\n%s\n}}\n"
      (String.concat ",\n"
         (List.map
            (fun (name, tables) ->
              Printf.sprintf "%S: [%s]" name
                (String.concat ", " (List.map Table.to_json tables)))
            results))
