(* Analysis of a traced run: the doctor's causal timelines over the flight
   dumps, the stage-sum reconciliation against the benchmark's own
   spans, failover and recovery figures, the codec probe, and the
   tracing overhead against the untraced run of the same invocation. *)

open Util
module Doctor = Abcast_harness.Doctor
module Flight = Abcast_sim.Flight
module Payload = Abcast_core.Payload
module Batch = Abcast_core.Batch
module Trace_ctx = Abcast_core.Trace_ctx

(* The stage means of the doctor's traces must sum to the benchmark's
   mean call-to-completion latency of the same requests within this
   share of the latter. They differ by the time from the call to the
   first stamp and from the last stamp to the callback. *)
let reconcile_tolerance = 0.10

let stage_names =
  [ "submit_bcast"; "bcast_propose"; "propose_decide"; "decide_apply"; "apply_ack" ]

let names ~end_to_end =
  List.map (fun s -> ("trace.stage." ^ s ^ "_us", "us")) stage_names
  @ [
      ("trace.traces", "count");
      ("trace.stage_sum_us", "us");
      ("trace.bench_mean_us", "us");
      ("trace.reconcile_err", "ratio");
    ]
  @ List.map (fun (m, _) -> ("trace.overhead." ^ m, "ratio")) end_to_end

(* One complete write or broadcast timeline as stage boundaries (µs):
   [submit; bcast; propose; decide; apply at origin; ack] for a service
   write, [bcast; propose; decide; apply at origin] for a raw broadcast. *)
let rec monotone = function x :: (y :: _ as r) -> x <= y && monotone r | _ -> true

let chain ~service (t : Doctor.trace_info) =
  let ( let* ) = Option.bind in
  let* b = t.bcast_time in
  let* p =
    match t.proposes with
    | [] -> None
    | l -> Some (List.fold_left (fun m (_, x) -> min m x) max_int l)
  in
  let* d = t.decide_time in
  let* a =
    List.find_map
      (fun (node, x, _) -> if node = t.origin then Some x else None)
      t.applies
  in
  let inner = [ b; p; d; a ] in
  let* pts =
    if service then
      let* s = t.submit_time in
      let* k = t.ack_time in
      Some ((s :: inner) @ [ k ])
    else Some inner
  in
  if monotone pts then Some (t, pts) else None

(* Mean ns of one encode+decode of a batch of [k] 64-byte payloads. *)
let codec_roundtrip_ns k =
  let k = max 1 k in
  let ps =
    List.init k (fun i ->
        Payload.make
          { Payload.origin = i mod 3; boot = 1; seq = i }
          (String.make 64 (Char.chr (97 + (i mod 26)))))
  in
  let iters = ref 0 in
  let t0 = now () in
  while now () -. t0 < 0.3 do
    for _ = 1 to 50 do
      ignore (Batch.decode (Batch.encode ps) : Payload.t list)
    done;
    iters := !iters + 50
  done;
  (now () -. t0) *. 1e9 /. float_of_int !iters

(* Kill → first decide at a surviving node, from their flight dumps. *)
let failover_ms dir (o : outcome) =
  match o.kill_at with
  | None -> None
  | Some k ->
    let kill_us = int_of_float (rt_us o k) in
    List.fold_left
      (fun acc i ->
        match
          Flight.load_file
            (Filename.concat dir (Printf.sprintf "node%d/flight.bin" i))
        with
        | Error _ -> acc
        | Ok d ->
          List.fold_left
            (fun acc (e : Flight.event) ->
              if e.e_stage = Flight.decide && e.e_time > kill_us then
                let ms = float_of_int (e.e_time - kill_us) /. 1e3 in
                match acc with Some m when m <= ms -> acc | _ -> Some ms
              else acc)
            acc d.d_events)
      None [ 1; 2 ]

(* Lease overlap: a Lease marker granted to a node other than the last
   Claim holder on an observer's timeline, the doctor's rule, with
   state-transfer jumps excused as the doctor's delivery-gap rule excuses
   them. A node that jumps adopts the markers below the jump without
   applying them, so it can miss the current holder's Claim and then read
   that holder's Lease markers as granted to a non-holder; the doctor
   flags each of them. Here the observer's holder is unknown from a jump
   to the next Claim it applies. The total order gives every node the
   same marker sequence, so the nodes that applied all of it still check
   every marker. Returns the overlaps, and the markers checked and
   excused. *)
let lease_overlaps dir =
  let rec dumps i =
    let p = Filename.concat dir (Printf.sprintf "node%d/flight.bin" i) in
    if Sys.file_exists p then p :: dumps (i + 1) else []
  in
  let checked = ref 0 and excused = ref 0 in
  let found =
    List.concat_map
      (fun p ->
        match Flight.load_file p with
        | Error e -> [ Printf.sprintf "%s: unreadable flight dump (%s)" p e ]
        | Ok d ->
          (* a dump holds one node's events in the order recorded *)
          let holder = Hashtbl.create 4 in
          List.filter_map
            (fun (e : Flight.event) ->
              let k = (e.e_node, e.e_group) in
              if e.e_stage = Flight.stjump then (Hashtbl.replace holder k None; None)
              else if e.e_stage <> Flight.lease then None
              else if e.e_b land 2 <> 0 then (Hashtbl.replace holder k (Some e.e_a); None)
              else
                match Hashtbl.find_opt holder k with
                | Some None -> incr excused; None
                | Some (Some h) when h <> e.e_a ->
                  incr checked;
                  Some
                    (Printf.sprintf
                       "lease-overlap: node %d group %d: lease renewed for node \
                        %d while floor is held by node %d"
                       e.e_node e.e_group e.e_a h)
                | Some (Some _) -> incr checked; None
                | None -> None)
            d.d_events)
      (dumps 0)
  in
  (found, !checked, !excused)

let analyze (o : outcome) ~(plain : outcome) ~end_to_end =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let dir = Option.get o.trace_dir in
  write_spans o (Filename.concat dir "spans.tsv");
  let service = List.exists (fun s -> s.sp_kind = 'w') o.spans in
  let values = ref [] in
  let add ?samples k v = values := (k, v, samples) :: !values in
  (match Doctor.analyze ~max_traces:400 ~audit:service ~dir () with
  | Error e -> err "doctor: %s" e
  | Ok r ->
    (* every anomaly but lease-overlap comes from the doctor; that one is
       checked by [lease_overlaps] *)
    List.iter
      (fun (a : Doctor.anomaly) ->
        if a.code <> "lease-overlap" then
          err "doctor anomaly %s: %s" a.code a.detail)
      r.anomalies;
    let overlaps, checked, excused = lease_overlaps dir in
    List.iter (err "%s") overlaps;
    Printf.printf
      "lease audit: %d Lease markers checked, %d excused after a state-transfer jump\n"
      checked excused;
    let chains = List.filter_map (chain ~service) r.traces in
    (* Each timeline is matched to the benchmark's own span of the same
       request. A service write's submit stamp falls inside its
       Service.submit call, and the generator makes one call at a time.
       A raw broadcast's trace stamp carries its per-origin sequence
       number, and the benchmark sends its k-th op to origin k mod n, so
       the op is k = seq * n + origin; its Runtime.broadcast call opens
       the timeline. *)
    let spans =
      List.filter (fun s -> s.sp_kind = (if service then 'w' else 'b') && Float.is_finite s.sp_fin) o.spans
    in
    let measured_us sp = (sp.sp_fin -. sp.sp_call) *. 1e6 in
    let chains, measured =
      if service then begin
        let calls = Array.of_list spans in
        Array.sort (fun a b -> Float.compare a.sp_call b.sp_call) calls;
        let slack = 50. in
        let find sub =
          (* last span whose call starts at or before the stamp *)
          let rec bs lo hi =
            if lo >= hi then lo - 1
            else
              let mid = (lo + hi) / 2 in
              if rt_us o calls.(mid).sp_call <= sub +. slack then bs (mid + 1) hi
              else bs lo mid
          in
          let i = bs 0 (Array.length calls) in
          if i >= 0 && rt_us o calls.(i).sp_ret >= sub -. slack then Some calls.(i)
          else None
        in
        List.filter_map
          (fun (_, c) ->
            Option.map (fun sp -> (c, measured_us sp)) (find (float_of_int (List.hd c))))
          chains
        |> List.split
      end
      else begin
        let by_id = Hashtbl.create 1024 in
        List.iter (fun sp -> Hashtbl.replace by_id sp.sp_id sp) spans;
        List.filter_map
          (fun ((t : Doctor.trace_info), c) ->
            let k = ((Trace_ctx.stamp t.tid lsr 10) * Bcast.n) + t.origin in
            match Hashtbl.find_opt by_id k with
            | Some sp ->
              let call = int_of_float (rt_us o sp.sp_call) in
              if call <= List.hd c then Some (call :: c, measured_us sp) else None
            | None -> None)
          chains
        |> List.split
      end
    in
    let nt = List.length chains in
    add "trace.traces" (Some (float_of_int nt));
    let mean f =
      if nt = 0 then None
      else
        Some
          (List.fold_left (fun a c -> a +. float_of_int (f c)) 0. chains
          /. float_of_int nt)
    in
    let nth l i = List.nth l i in
    (* a raw broadcast's timeline ends at apply: no apply->ack stage *)
    let stages =
      List.filteri (fun i _ -> service || i < 4) stage_names
      |> List.mapi (fun i s -> (s, fun c -> nth c (i + 1) - nth c i))
    in
    List.iter
      (fun s ->
        let v =
          match List.assoc_opt s stages with Some f -> mean f | None -> None
        in
        add ~samples:nt ("trace.stage." ^ s ^ "_us") v)
      stage_names;
    if service then
      add ~samples:nt "service.apply_to_ack_us"
        (mean (fun c -> nth c 5 - nth c 4));
    let sum = mean (fun c -> List.nth c (List.length c - 1) - List.hd c) in
    add ~samples:nt "trace.stage_sum_us" sum;
    let nd = List.length measured in
    let dmean =
      if nd = 0 then None
      else Some (List.fold_left ( +. ) 0. measured /. float_of_int nd)
    in
    add ~samples:nd "trace.bench_mean_us" dmean;
    (match (sum, dmean) with
    | Some s, Some d ->
      let e = (s -. d) /. d in
      add "trace.reconcile_err" (Some e);
      if Float.abs e > reconcile_tolerance then
        err "stage means sum to %.0f us, benchmark measured %.0f us (%.0f%% off, \
             tolerance %.0f%%)" s d (100. *. e) (100. *. reconcile_tolerance)
    | _ -> err "no complete trace to reconcile (%d analyzed)" (List.length r.traces));
    (* recovery timeline of node 0's last boot, when it was restarted *)
    let boots0 = Option.value (List.assoc_opt 0 r.boots) ~default:0 in
    let rv =
      if o.kill_at = None || boots0 < 2 then None
      else
        List.fold_left
          (fun acc (v : Doctor.recovery) ->
            if v.rv_node <> 0 then acc
            else
              match acc with
              | Some (a : Doctor.recovery) when a.rv_boot >= v.rv_boot -> acc
              | _ -> Some v)
          None r.recoveries
    in
    (match rv with
    | None when o.kill_at <> None ->
      err "no recovery timeline of node 0 in the flight dumps"
    | Some v when v.Doctor.rv_caught_len < 0 ->
      err "node 0's recovery timeline never reaches caught-up"
    | _ -> ());
    let f g = Option.map (fun v -> float_of_int (g v)) rv in
    add "recovery.replay_records" (f (fun v -> v.Doctor.rv_replay_records));
    add "recovery.replay_us" (f (fun v -> v.Doctor.rv_replay_us));
    add "recovery.protocol_us" (f (fun v -> v.Doctor.rv_protocol_us));
    add "recovery.stjump_instances"
      (f (fun v ->
           match v.Doctor.rv_stjump with Some (a, b) -> b - a | None -> 0));
    add "recovery.caught_us"
      (Option.bind rv (fun v ->
           if v.Doctor.rv_caught_len >= 0 then Some (float_of_int v.rv_caught_us)
           else None)));
  let failover = failover_ms dir o in
  if o.kill_at <> None && failover = None then
    err "no decide at a surviving node after the kill";
  add "consensus.failover_ms" failover;
  add "consensus.ops_per_instance" o.ops_per_instance;
  add "codec.batch_roundtrip_ns"
    (Option.map
       (fun k -> codec_roundtrip_ns (int_of_float (Float.round k)))
       o.ops_per_instance);
  (* tracing overhead: traced / untraced - 1 per end-to-end metric *)
  let get (x : outcome) k =
    List.find_map (fun (n, v, _) -> if n = k then v else None) x.values
  in
  List.iter
    (fun (m, _) ->
      add ("trace.overhead." ^ m)
        (match (get o m, get plain m) with
        | Some t, Some p when p <> 0. -> Some ((t /. p) -. 1.)
        | _ -> None))
    end_to_end;
  (List.rev !values, List.rev !errors)
