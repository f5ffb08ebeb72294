(* livebench — live end-to-end benchmark of the in-process cluster.

   Usage: livebench --workload NAME --seed N --seconds S --trace 0|1

   Drives the live runtime over loopback UDP through public calls only
   (Runtime, Service, Factory), checks the outputs, prints a table of
   every metric by name and unit, and ends with one JSON line. With
   --trace 0 the JSON carries the end-to-end metrics of the untraced
   run. With --trace 1 the workload runs twice, untraced and then with
   causal tracing sampled, and the JSON carries the per-layer metrics of
   the traced run, the stage-sum reconciliation and the tracing
   overhead. A failed output check prints CHECK FAILED and reports
   "correct": false. *)

open Util

(* End-to-end metrics reported in the --trace 0 JSON and held to a bound:
   the ones that are never 0 and repeat from run to run on a shared
   two-core host. Latency is the median over the ops due in the window's
   quiet slots (Util.slot_s), a failed op counting as infinite. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("write_p50_quiet_ms", "ms");
    ("lin_read_p50_quiet_us", "us");
    ("cpu_us_per_op", "us");
    ("peak_rss_mb", "MiB");
  ]

(* The other end-to-end metrics of the kv workloads: percentiles over all
   ops and workload-specific figures, too noisy on a shared host to hold
   to a bound. Printed in the table (n/a where a workload has no such
   operation) and carried in the --trace 1 JSON. *)
let specific =
  [
    ("write_p50_ms", "ms");
    ("write_p90_ms", "ms");
    ("write_p99_ms", "ms");
    ("lin_read_p50_us", "us");
    ("lin_read_p90_us", "us");
    ("lin_read_p99_us", "us");
    ("gen_late_p99_ms", "ms");
    ("failed_frac", "ratio");
  ]

(* Figures only kv-write-crash produces: n/a on the other workloads, so
   they are printed in the table but kept out of the JSON, which carries
   a number for every metric it names. [crash_only] comes from the
   untraced run, [crash_layers] from the flight dumps of the traced one. *)
let crash_only = [ ("unavail_ms", "ms"); ("catchup_ms", "ms") ]

let crash_layers =
  [
    ("consensus.failover_ms", "ms");
    ("recovery.replay_records", "count");
    ("recovery.replay_us", "us");
    ("recovery.protocol_us", "us");
    ("recovery.stjump_instances", "count");
    ("recovery.caught_us", "us");
  ]

(* Figures only bcast-closed produces. It is not a BENCHMARK.json
   workload, so they are printed in the table but kept out of the JSON. *)
let bcast_only =
  [
    ("deliver_p50_ms", "ms");
    ("deliver_p99_ms", "ms");
    ("live.broadcast_call_us", "us");
  ]

let layers =
  [
    ("live.sys_cpu_us_per_op", "us");
    ("live.tx_oversize", "count");
    ("live.rx_undecodable", "count");
    ("protocol.broadcast_to_propose_us", "us");
    ("protocol.propose_to_adeliver_us", "us");
    ("protocol.gossip_bytes_per_op", "B");
    ("protocol.need_per_kop", "1/kop");
    ("protocol.state_sent_per_kop", "1/kop");
    ("protocol.state_bytes_per_op", "B");
    ("protocol.state_useful_ratio", "ratio");
    ("consensus.propose_to_decide_us", "us");
    ("consensus.ops_per_instance", "count");
    ("wal.appends_per_op", "count");
    ("wal.fsyncs_per_op", "count");
    ("wal.append_us", "us");
    ("wal.fsync_us_p99", "us");
    ("service.submit_call_us", "us");
    ("service.apply_to_ack_us", "us");
    ("service.read_index_call_us", "us");
    ("service.not_ready_frac", "ratio");
    ("service.retries_per_kop", "1/kop");
    ("codec.batch_roundtrip_ns", "ns");
    ("gc.heap_words_per_op", "words");
    ("gc.major_per_kop", "1/kop");
  ]

let workloads = [ "bcast-closed"; "kv-read-open"; "kv-write-crash" ]

let run_workload w ~seed ~seconds ~trace =
  match w with
  | "bcast-closed" -> Bcast.run ~seed ~seconds ~trace
  | "kv-read-open" | "kv-write-crash" -> Kvload.run w ~seed ~seconds ~trace
  | _ -> invalid_arg w

let unit_of name =
  match
    List.assoc_opt name
      (end_to_end @ specific @ crash_only @ bcast_only @ layers @ crash_layers
     @ Traced.names ~end_to_end)
  with
  | Some u -> u
  | None -> "-"

let put_values (o : outcome) names =
  List.iter
    (fun (name, _) ->
      match List.find_opt (fun (k, _, _) -> k = name) o.values with
      | Some (_, v, samples) -> put ?samples name (unit_of name) v
      | None -> put name (unit_of name) None)
    names

let usage () =
  prerr_endline
    "usage: livebench --workload bcast-closed|kv-read-open|kv-write-crash \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref false in
  let rec parse = function
    | "--workload" :: w :: r -> workload := w; parse r
    | "--seed" :: s :: r -> seed := int_of_string s; parse r
    | "--seconds" :: s :: r -> seconds := float_of_string s; parse r
    | "--trace" :: t :: r -> trace := t = "1"; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) then usage ();
  let seed = !seed and seconds = !seconds in
  Printf.printf "livebench: workload %s, seed %d, %.0f s, trace %b\n%!"
    !workload seed seconds !trace;
  let h0 = host_ticks () in
  let plain = run_workload !workload ~seed ~seconds ~trace:false in
  (match (h0, host_ticks ()) with
  | Some (a0, s0), Some (a1, s1) when a1 > a0 ->
    Printf.printf "host: %.1f%% of CPU time stolen by other guests during the run\n"
      (100. *. float_of_int (s1 - s0) /. float_of_int (a1 - a0))
  | _ -> ());
  let errors = ref plain.errors in
  let bcast = !workload = "bcast-closed" in
  let json_names =
    if not !trace then begin
      put_values plain end_to_end;
      put_values plain specific;
      put_values plain crash_only;
      if bcast then put_values plain bcast_only;
      end_to_end
    end
    else begin
      let traced = run_workload !workload ~seed ~seconds ~trace:true in
      let extra, errs = Traced.analyze traced ~plain ~end_to_end in
      errors := !errors @ traced.errors @ errs;
      let traced = { traced with values = extra @ traced.values } in
      put_values plain specific;
      put_values plain crash_only;
      if bcast then put_values plain bcast_only;
      put_values traced layers;
      put_values traced crash_layers;
      put_values traced (Traced.names ~end_to_end);
      (* keep the last traced run of each workload for offline reading *)
      Option.iter
        (fun d ->
          let keep = Filename.concat runs_root ("last-trace-" ^ !workload) in
          rm_rf keep;
          Sys.rename d keep;
          Printf.printf "traced run kept in %s (flight dumps, spans.tsv)\n" keep)
        traced.trace_dir;
      specific @ layers @ Traced.names ~end_to_end
    end
  in
  print_table (Printf.sprintf "%s (seed %d)" !workload seed);
  (* one line per distinct failure, with its count *)
  let distinct = List.sort_uniq compare !errors in
  List.iter
    (fun e ->
      match List.length (List.filter (( = ) e) !errors) with
      | 1 -> Printf.printf "CHECK FAILED: %s\n" e
      | k -> Printf.printf "CHECK FAILED: %s (x%d)\n" e k)
    distinct;
  let correct = !errors = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct plain.attempted plain.failed (json_metrics json_names);
  exit 0
