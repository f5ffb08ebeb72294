(* Offline trace analyzer behind [abcast-sim doctor].

   Input is a live run directory: per-node flight-recorder dumps
   ([node<i>/flight.bin], written by the runtime next to each WAL). The
   analyzer merges every node's events into one timeline (the live
   runtime stamps all flight events against one shared epoch, so
   cross-node times are directly comparable), reconstructs the causal
   path of every sampled broadcast, breaks the end-to-end latency into
   stages, and cross-checks the merged history for protocol anomalies.

   The anomaly rules only ever compare facts the total order makes
   deterministic (apply positions, instance numbers, lease floors), so
   they are robust to the ring buffer having dropped old events: a
   missing event can hide an anomaly but never invent one. *)

module Flight = Abcast_sim.Flight
module History = Abcast_sim.History
module Trace_ctx = Abcast_core.Trace_ctx

type trace_info = {
  tid : int;
  origin : int;  (* node packed into the trace id *)
  submit_time : int option;  (* linked via the ack's (session, seq) *)
  bcast_time : int option;
  first_rx : (int * int) list;  (* (node, time), one per remote node *)
  proposes : (int * int) list;  (* (instance, time) *)
  decide_time : int option;
  applies : (int * int * int) list;  (* (node, time, apply position) *)
  ack_time : int option;
  complete : bool;
      (* bcast + propose + decide + >= 1 apply all present: the causal
         path can be walked end to end from the dumps *)
}

type stage_stat = {
  stage : string;
  count : int;
  mean_us : float;
  max_us : float;
}

type anomaly = { code : string; detail : string }

type recovery = {
  rv_node : int;
  rv_boot : int;
  rv_replay_records : int;  (* stable-storage records replayed at boot *)
  rv_replay_us : int;
  rv_rounds : int;  (* consensus rounds re-run by protocol recovery *)
  rv_protocol_us : int;
  rv_stjump : (int * int) option;  (* state transfer jumped from -> to *)
  rv_caught_len : int;  (* delivery length at first post-recovery
                           delivery; -1 = never caught up in the dump *)
  rv_caught_us : int;  (* µs from boot to that first delivery *)
}

type fd_flip = {
  ff_node : int;
  ff_group : int;
  ff_time : int;
  ff_peer : int;
  ff_epoch : int;  (* the peer's epoch as the node knew it *)
  ff_suspect : bool;  (* false: trusted again *)
  ff_next_decide : int option;
      (* after a suspicion: when the node next decided an instance of
         that group — the end of a failover as this node saw it *)
}

type audit_summary = {
  au_histories : int;  (* client history files merged *)
  au_events : int;  (* completed ops across them *)
  au_lin_reads : int;  (* linearizable reads checked *)
  au_chain_points : int;  (* (group, position) chain grid points compared *)
}

type report = {
  dir : string;
  nodes : int list;  (* node ids a dump was loaded for *)
  events : int;
  dropped : int;  (* summed ring overwrites across nodes *)
  dropped_by_node : (int * int) list;  (* node -> its ring overwrites *)
  boots : (int * int) list;  (* node -> boots seen in its dump *)
  traces : trace_info list;
  stages : stage_stat list;
  recoveries : recovery list;
  fd_flips : fd_flip list;  (* in time order *)
  audit : audit_summary option;  (* Some when [analyze ~audit:true] ran *)
  anomalies : anomaly list;
  notes : string list;
}

(* ---- loading -------------------------------------------------------- *)

let list_node_dumps dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun e ->
           if String.length e > 4 && String.sub e 0 4 = "node" then
             match int_of_string_opt (String.sub e 4 (String.length e - 4)) with
             | Some i ->
               let path = Filename.concat (Filename.concat dir e) "flight.bin" in
               if Sys.file_exists path then Some (i, path) else None
             | None -> None
           else None)
    |> List.sort compare
  | exception Sys_error _ -> []

let list_histories dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.filter (fun e -> Filename.check_suffix e ".history")
    |> List.map (Filename.concat dir)
    |> List.sort compare
  | exception Sys_error _ -> []

(* ---- analysis ------------------------------------------------------- *)

let us f = float_of_int f

let mk_stage name samples =
  match samples with
  | [] -> None
  | _ ->
    let n = List.length samples in
    let sum = List.fold_left ( +. ) 0. samples in
    let mx = List.fold_left Float.max neg_infinity samples in
    Some { stage = name; count = n; mean_us = sum /. float_of_int n; max_us = mx }

let analyze ?(max_traces = 64) ?(audit = false) ~dir () =
  let dumps = list_node_dumps dir in
  if dumps = [] then Error (Printf.sprintf "%s: no node*/flight.bin dumps" dir)
  else begin
    let notes = ref [] in
    let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
    let loaded =
      List.filter_map
        (fun (i, path) ->
          match Flight.load_file path with
          | Ok d -> Some (i, d)
          | Error e ->
            note "node %d: unreadable flight dump (%s)" i e;
            None)
        dumps
    in
    if loaded = [] then Error (Printf.sprintf "%s: no readable flight dumps" dir)
    else begin
      let all =
        List.concat_map (fun (_, d) -> d.Flight.d_events) loaded
        |> List.sort (fun (a : Flight.event) b ->
               compare (a.e_time, a.e_node, a.e_stage) (b.e_time, b.e_node, b.e_stage))
      in
      let dropped_by_node =
        List.map (fun (i, d) -> (i, d.Flight.d_dropped)) loaded
      in
      let dropped = List.fold_left (fun acc (_, d) -> acc + d) 0 dropped_by_node in
      (* a wrapped ring means the timeline has a hole: every check below
         stays sound (a missing event never invents an anomaly) but may
         miss one, so the gap itself is worth a loud note *)
      List.iter
        (fun (i, d) ->
          if d > 0 then
            note
              "node %d: flight ring overwrote %d events — the timeline has a \
               hole (raise the flight capacity for longer memory)"
              i d)
        dropped_by_node;
      let boots =
        List.map
          (fun (i, d) ->
            let bs =
              List.filter (fun (e : Flight.event) -> e.e_stage = Flight.boot)
                d.Flight.d_events
            in
            (i, List.length bs))
          loaded
      in
      (* index events by kind once *)
      let by_stage st =
        List.filter (fun (e : Flight.event) -> e.e_stage = st) all
      in
      let rx =
        List.filter
          (fun (e : Flight.event) ->
            e.e_stage = Flight.rx_ring || e.e_stage = Flight.rx_gossip)
          all
      in
      let decides = by_stage Flight.decide in
      let proposes_all = by_stage Flight.propose in
      let applies_all = by_stage Flight.apply in
      let acks = by_stage Flight.ack in
      let submits = by_stage Flight.submit in
      let stjumps = by_stage Flight.stjump in
      (* every distinct sampled trace id, in first-seen order *)
      let tids = Hashtbl.create 64 in
      let tid_order = ref [] in
      List.iter
        (fun (e : Flight.event) ->
          if e.e_trace <> 0 && not (Hashtbl.mem tids e.e_trace) then begin
            Hashtbl.add tids e.e_trace ();
            tid_order := e.e_trace :: !tid_order
          end)
        all;
      let tid_order = List.rev !tid_order in
      if List.length tid_order > max_traces then
        note "showing first %d of %d sampled traces" max_traces
          (List.length tid_order);
      let decide_time_of ~group j t_p =
        List.fold_left
          (fun acc (e : Flight.event) ->
            if e.e_a = j && e.e_group = group && e.e_time >= t_p then
              match acc with
              | Some t when t <= e.e_time -> acc
              | _ -> Some e.e_time
            else acc)
          None decides
      in
      let trace_of tid =
        let ev = List.filter (fun (e : Flight.event) -> e.e_trace = tid) all in
        let find st =
          List.find_opt (fun (e : Flight.event) -> e.e_stage = st) ev
        in
        let bcast = find Flight.bcast in
        let group =
          match ev with e :: _ -> e.e_group | [] -> 0
        in
        let origin = Trace_ctx.node tid in
        (* first sight per remote node *)
        let first_rx =
          List.fold_left
            (fun acc (e : Flight.event) ->
              if e.e_trace = tid && not (List.mem_assoc e.e_node acc) then
                (e.e_node, e.e_time) :: acc
              else acc)
            [] rx
          |> List.rev
        in
        let proposes =
          List.filter_map
            (fun (e : Flight.event) ->
              if e.e_trace = tid then Some (e.e_a, e.e_time) else None)
            proposes_all
        in
        let decide_time =
          List.fold_left
            (fun acc (j, t_p) ->
              match (acc, decide_time_of ~group j t_p) with
              | None, d -> d
              | d, None -> d
              | Some a, Some b -> Some (min a b))
            None proposes
        in
        let applies =
          List.filter_map
            (fun (e : Flight.event) ->
              if e.e_trace = tid then Some (e.e_node, e.e_time, e.e_a) else None)
            applies_all
        in
        let ack = List.find_opt (fun (e : Flight.event) -> e.e_trace = tid) acks in
        (* the ack carries (session, seq); the matching submit is the
           untraced event with the same operands at the ack's node *)
        let submit_time =
          match ack with
          | None -> None
          | Some a ->
            List.find_opt
              (fun (e : Flight.event) ->
                e.e_node = a.e_node && e.e_a = a.e_a && e.e_b = a.e_b)
              submits
            |> Option.map (fun (e : Flight.event) -> e.e_time)
        in
        {
          tid;
          origin;
          submit_time;
          bcast_time = Option.map (fun (e : Flight.event) -> e.e_time) bcast;
          first_rx;
          proposes;
          decide_time;
          applies;
          ack_time = Option.map (fun (e : Flight.event) -> e.e_time) ack;
          complete =
            bcast <> None && proposes <> [] && decide_time <> None
            && applies <> [];
        }
      in
      let traces =
        List.filteri (fun i _ -> i < max_traces) tid_order |> List.map trace_of
      in
      (* ---- per-stage latency breakdown ---- *)
      let collect f = List.concat_map f traces in
      let stages =
        List.filter_map Fun.id
          [
            mk_stage "submit->bcast"
              (collect (fun t ->
                   match (t.submit_time, t.bcast_time) with
                   | Some s, Some b when b >= s -> [ us (b - s) ]
                   | _ -> []));
            mk_stage "bcast->rx (dissemination)"
              (collect (fun t ->
                   match t.bcast_time with
                   | Some b ->
                     List.filter_map
                       (fun (n, r) ->
                         if n <> t.origin && r >= b then Some (us (r - b))
                         else None)
                       t.first_rx
                   | None -> []));
            mk_stage "propose->decide (consensus)"
              (collect (fun t ->
                   match (t.proposes, t.decide_time) with
                   | (_, p) :: _, Some d when d >= p -> [ us (d - p) ]
                   | _ -> []));
            mk_stage "decide->apply"
              (collect (fun t ->
                   match t.decide_time with
                   | Some d ->
                     List.filter_map
                       (fun (_, ta, _) ->
                         if ta >= d then Some (us (ta - d)) else None)
                       t.applies
                   | None -> []));
            mk_stage "apply->ack"
              (collect (fun t ->
                   match (t.ack_time, t.applies) with
                   | Some a, (_ :: _ as aps) ->
                     let first =
                       List.fold_left (fun m (_, ta, _) -> min m ta) max_int aps
                     in
                     if a >= first then [ us (a - first) ] else []
                   | _ -> []));
            mk_stage "wal append (dur)"
              (List.filter_map
                 (fun (e : Flight.event) ->
                   if e.e_stage = Flight.wal_append then Some (us e.e_a)
                   else None)
                 all);
            mk_stage "wal fsync (dur)"
              (List.filter_map
                 (fun (e : Flight.event) ->
                   if e.e_stage = Flight.wal_fsync then Some (us e.e_a) else None)
                 all);
          ]
      in
      (* ---- anomalies ---- *)
      let anomalies = ref [] in
      let flag code fmt =
        Printf.ksprintf (fun detail -> anomalies := { code; detail } :: !anomalies) fmt
      in
      (* stuck consensus instance: proposed at some node, never decided
         anywhere in its group, while a later instance of that group did
         decide (so it is not just in flight at the end of the run) *)
      let groups =
        List.sort_uniq compare
          (List.map (fun (e : Flight.event) -> e.e_group) all)
      in
      List.iter
        (fun g ->
          let decided =
            List.filter_map
              (fun (e : Flight.event) ->
                if e.e_group = g then Some e.e_a else None)
              decides
          in
          let max_decided = List.fold_left max (-1) decided in
          let proposed =
            List.filter_map
              (fun (e : Flight.event) ->
                if e.e_group = g && e.e_trace = 0 then Some e.e_a else None)
              proposes_all
            |> List.sort_uniq compare
          in
          List.iter
            (fun j ->
              if j < max_decided && not (List.mem j decided) then
                flag "stuck-instance"
                  "group %d: instance %d proposed but never decided (max \
                   decided %d)"
                  g j max_decided)
            proposed)
        groups;
      (* dedup violation: one sampled payload applied twice by the same
         incarnation of the same node (recovery replay legitimately
         re-applies under a higher boot, so the boot scopes the check) *)
      let seen_apply = Hashtbl.create 64 in
      List.iter
        (fun (e : Flight.event) ->
          if e.e_trace <> 0 then begin
            let k = (e.e_trace, e.e_node, e.e_group, e.e_boot) in
            if Hashtbl.mem seen_apply k then
              flag "dedup-violation"
                "node %d (boot %d): trace %s applied twice" e.e_node e.e_boot
                (Trace_ctx.to_string e.e_trace)
            else Hashtbl.add seen_apply k ()
          end)
        applies_all;
      (* delivery gap: the total order fixes what sits at each apply
         position of a group, so a node whose dump brackets position p
         (applies below and above) without applying p itself skipped a
         delivery — unless a state-transfer jump on that node explains
         the hole *)
      let jump_nodes =
        List.sort_uniq compare
          (List.map (fun (e : Flight.event) -> (e.e_node, e.e_group)) stjumps)
      in
      List.iter
        (fun t ->
          match t.applies with
          | [] -> ()
          | (_, _, pos) :: _ ->
            let g =
              match
                List.find_opt (fun (e : Flight.event) -> e.e_trace = t.tid) all
              with
              | Some e -> e.e_group
              | None -> 0
            in
            List.iter
              (fun (i, _) ->
                let mine =
                  List.filter_map
                    (fun (e : Flight.event) ->
                      if
                        e.e_stage = Flight.apply && e.e_node = i && e.e_group = g
                        && e.e_trace <> 0
                      then Some (e.e_trace, e.e_a)
                      else None)
                    all
                in
                let has_tid = List.exists (fun (tid, _) -> tid = t.tid) mine in
                let below = List.exists (fun (_, p) -> p < pos) mine in
                let above = List.exists (fun (_, p) -> p > pos) mine in
                if
                  (not has_tid) && below && above
                  && not (List.mem (i, g) jump_nodes)
                then
                  flag "delivery-gap"
                    "node %d: applied positions around %d of group %d but \
                     never trace %s"
                    i pos g (Trace_ctx.to_string t.tid))
              boots)
        traces;
      (* ---- recovery timeline: per (node, boot) episode ---- *)
      let recoveries =
        List.concat_map
          (fun (i, d) ->
            (* walk the node's own dump in order, splitting episodes at
               boot events; replay events from the storage layer carry
               boot 0, so attribution is positional, not by e_boot.
               Storage replay runs BEFORE the protocol records its boot
               event, so replay seen after the current episode already
               caught up belongs to the NEXT incarnation — buffer it. *)
            let eps = ref [] in
            let cur = ref None in
            let pending_records = ref 0 and pending_us = ref 0 in
            let fresh boot =
              {
                rv_node = i;
                rv_boot = boot;
                rv_replay_records = 0;
                rv_replay_us = 0;
                rv_rounds = 0;
                rv_protocol_us = 0;
                rv_stjump = None;
                rv_caught_len = -1;
                rv_caught_us = 0;
              }
            in
            let flush () =
              match !cur with
              | Some r -> eps := r :: !eps
              | None -> ()
            in
            let get boot =
              match !cur with
              | Some r -> r
              | None ->
                let r = fresh boot in
                cur := Some r;
                r
            in
            List.iter
              (fun (e : Flight.event) ->
                if e.e_stage = Flight.boot then begin
                  flush ();
                  let r = fresh e.e_a in
                  cur :=
                    Some
                      {
                        r with
                        rv_replay_records = !pending_records;
                        rv_replay_us = !pending_us;
                      };
                  pending_records := 0;
                  pending_us := 0
                end
                else if e.e_stage = Flight.replay then begin
                  let caught =
                    match !cur with
                    | Some r -> r.rv_caught_len >= 0
                    | None -> false
                  in
                  if caught then begin
                    pending_records := !pending_records + e.e_a;
                    pending_us := !pending_us + e.e_b
                  end
                  else
                    let r = get e.e_boot in
                    cur :=
                      Some
                        {
                          r with
                          rv_replay_records = r.rv_replay_records + e.e_a;
                          rv_replay_us = r.rv_replay_us + e.e_b;
                        }
                end
                else if e.e_stage = Flight.replay_done then begin
                  let r = get e.e_boot in
                  cur :=
                    Some
                      { r with rv_rounds = e.e_a; rv_protocol_us = e.e_b }
                end
                else if e.e_stage = Flight.stjump then begin
                  let r = get e.e_boot in
                  cur := Some { r with rv_stjump = Some (e.e_a, e.e_b) }
                end
                else if e.e_stage = Flight.caught_up then begin
                  let r = get e.e_boot in
                  cur :=
                    Some { r with rv_caught_len = e.e_a; rv_caught_us = e.e_b }
                end)
              d.Flight.d_events;
            flush ();
            (* keep the episodes that tell a recovery story: an actual
               re-boot, a non-empty replay, or a state-transfer jump *)
            List.rev !eps
            |> List.filter (fun r ->
                   r.rv_boot > 0 || r.rv_replay_records > 0
                   || r.rv_stjump <> None))
          loaded
      in
      (* ---- failure-detector flips, each suspicion with the node's
         next decide in that group: kill -> suspicion -> first decide
         reads straight off the survivors' lines ---- *)
      let fd_flips =
        List.filter_map
          (fun (e : Flight.event) ->
            let suspect = e.e_stage = Flight.suspect in
            if suspect || e.e_stage = Flight.trust then
              let next_decide =
                if not suspect then None
                else
                  List.find_map
                    (fun (d : Flight.event) ->
                      if
                        d.e_node = e.e_node && d.e_group = e.e_group
                        && d.e_time >= e.e_time
                      then Some d.e_time
                      else None)
                    decides
              in
              Some
                {
                  ff_node = e.e_node;
                  ff_group = e.e_group;
                  ff_time = e.e_time;
                  ff_peer = e.e_a;
                  ff_epoch = e.e_b;
                  ff_suspect = suspect;
                  ff_next_decide = next_decide;
                }
            else None)
          all
      in
      (* ---- online order audit evidence ---- *)
      (* sentinel trips recorded live: a certificate that mismatched the
         receiver's own delivery chain is a total-order violation caught
         in flight — surface every one *)
      List.iter
        (fun (e : Flight.event) ->
          flag "audit-diverged"
            "node %d (boot %d): order certificate from node %d mismatched \
             its delivery chain at length %d (group %d)"
            e.e_node e.e_boot e.e_b e.e_a e.e_group)
        (by_stage Flight.audit);
      (* chain grid cross-check: every node notes its chain hash at
         grid-aligned delivery positions; the total order makes the hash
         at a position a pure function of the prefix, so two nodes
         disagreeing at one (group, position) delivered different
         prefixes. Flag the minority side. *)
      let chain_tbl = Hashtbl.create 64 in
      List.iter
        (fun (e : Flight.event) ->
          let k = (e.e_group, e.e_a) in
          let cur =
            match Hashtbl.find_opt chain_tbl k with Some l -> l | None -> []
          in
          Hashtbl.replace chain_tbl k ((e.e_node, e.e_b) :: cur))
        (by_stage Flight.chain);
      let chain_points = Hashtbl.length chain_tbl in
      Hashtbl.fold (fun k l acc -> (k, List.sort_uniq compare l) :: acc)
        chain_tbl []
      |> List.sort compare
      |> List.iter (fun ((g, pos), l) ->
             let hashes = List.sort_uniq compare (List.map snd l) in
             if List.length hashes > 1 then begin
               let count h = List.length (List.filter (fun (_, x) -> x = h) l) in
               let majority =
                 List.fold_left
                   (fun best h -> if count h > count best then h else best)
                   (List.hd hashes) (List.tl hashes)
               in
               List.sort_uniq compare l
               |> List.iter (fun (n, h) ->
                      if h <> majority then
                        flag "order-divergence"
                          "node %d: delivery chain at position %d of group %d \
                           is %x, majority agrees on %x — this node delivered \
                           a different prefix"
                          n pos g h majority)
             end);
      (* ---- client history audit (--audit) ---- *)
      let audit_summary =
        if not audit then None
        else begin
          let files = list_histories dir in
          let events =
            List.concat_map
              (fun p ->
                match History.load_file p with
                | Ok l -> l
                | Error e ->
                  note "%s: unreadable history (%s)" (Filename.basename p) e;
                  [])
              files
          in
          (* real-time order: the keys are per-client counters, so a
             linearizable read invoked after a write's ack must observe a
             counter at least as big as the number of writes acked on
             that key before the invocation *)
          let wtbl = Hashtbl.create 64 in
          List.iter
            (fun (e : History.event) ->
              if e.History.kind = History.kind_write && e.ok then
                Hashtbl.replace wtbl e.key
                  (e.t_resp
                  ::
                  (match Hashtbl.find_opt wtbl e.key with
                  | Some l -> l
                  | None -> [])))
            events;
          let wsorted = Hashtbl.create 64 in
          Hashtbl.iter
            (fun k l ->
              let a = Array.of_list l in
              Array.sort compare a;
              Hashtbl.replace wsorted k a)
            wtbl;
          let acked_before key t =
            match Hashtbl.find_opt wsorted key with
            | None -> 0
            | Some a ->
              (* count of acks with t_resp <= t *)
              let lo = ref 0 and hi = ref (Array.length a) in
              while !lo < !hi do
                let mid = (!lo + !hi) / 2 in
                if a.(mid) <= t then lo := mid + 1 else hi := mid
              done;
              !lo
          in
          let lin_reads = ref 0 in
          List.iter
            (fun (e : History.event) ->
              if e.History.kind = History.kind_lin && e.ok then begin
                incr lin_reads;
                let visible = max e.value 0 in
                let expected = acked_before e.key e.t_inv in
                if visible < expected then
                  flag "stale-lin-read"
                    "client %d: linearizable read of key c%d returned %d, but \
                     %d writes were acked before its invocation (t_inv %d µs)"
                    e.client e.key visible expected e.t_inv
              end)
            events;
          if files = [] then
            note "--audit: no *.history files in %s (run the service with \
                  --history-out)" dir;
          Some
            {
              au_histories = List.length files;
              au_events = List.length events;
              au_lin_reads = !lin_reads;
              au_chain_points = chain_points;
            }
        end
      in
      (* overlapping lease: a Lease renewal granted to a node that is not
         the last Claim holder on that observer's timeline means two
         nodes could serve lease reads at once. Each observer's own dump
         is walked in recording order. A state-transfer jump adopts a
         prefix whose Claims this observer never applied, so its holder
         is unknown until the next Claim — as the delivery-gap rule
         excuses jumps. *)
      let last_claim = Hashtbl.create 8 in
      List.iter
        (fun (_, d) ->
          List.iter
            (fun (e : Flight.event) ->
              let k = (e.e_node, e.e_group) in
              if e.e_stage = Flight.stjump then Hashtbl.remove last_claim k
              else if e.e_stage <> Flight.lease then ()
              else if e.e_b land 2 <> 0 then Hashtbl.replace last_claim k e.e_a
              else
                match Hashtbl.find_opt last_claim k with
                | Some holder when holder <> e.e_a ->
                  flag "lease-overlap"
                    "node %d group %d: lease renewed for node %d while floor \
                     is held by node %d"
                    e.e_node e.e_group e.e_a holder
                | _ -> ())
            d.Flight.d_events)
        loaded;
      Ok
        {
          dir;
          nodes = List.map fst loaded;
          events = List.length all;
          dropped;
          dropped_by_node;
          boots;
          traces;
          stages;
          recoveries;
          fd_flips;
          audit = audit_summary;
          anomalies = List.rev !anomalies;
          notes = List.rev !notes;
        }
    end
  end

let has_anomalies r = r.anomalies <> []

let reconstructed r =
  List.filter (fun t -> t.complete) r.traces |> List.length

(* ---- Chrome trace_event export -------------------------------------- *)

(* One JSON array loadable in chrome://tracing and Perfetto. Paired
   stages become async events (ph "b"/"e"): many instances and payloads
   are in flight per node at once, and synchronous B/E events would need
   strict per-thread nesting. A node's untraced propose of instance j
   opens its "consensus" span, closed by that node's decide of j; a
   sampled payload's bcast opens its "abcast" span, closed by the first
   apply of that trace on the origin. Every other event is an instant.
   pid/tid are the node id; ts is the recorder's µs clock, sorted so it
   is monotone across the merged nodes. *)
let chrome_json events =
  let events =
    List.stable_sort
      (fun (x : Flight.event) (y : Flight.event) -> compare x.e_time y.e_time)
      events
  in
  let open_cons = Hashtbl.create 64 in
  let open_abcast = Hashtbl.create 64 in
  let buf = Buffer.create 4096 in
  let sep = ref "\n" in
  let add s =
    Buffer.add_string buf !sep;
    sep := ",\n";
    Buffer.add_string buf s
  in
  let async (e : Flight.event) ~cat ~ph id =
    add
      (Printf.sprintf
         {|  {"name":"%s","cat":"%s","ph":"%s","id":"%s","ts":%d,"pid":%d,"tid":%d}|}
         cat cat ph id e.e_time e.e_node e.e_node)
  in
  let instant (e : Flight.event) =
    add
      (Printf.sprintf
         {|  {"name":"%s","ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{"group":%d,"boot":%d,"trace":%d,"a":%d,"b":%d}}|}
         (Flight.stage_name e.e_stage) e.e_time e.e_node e.e_node e.e_group
         e.e_boot e.e_trace e.e_a e.e_b)
  in
  Buffer.add_string buf "[";
  List.iter
    (fun (e : Flight.event) ->
      let inst = (e.e_node, e.e_group, e.e_a) in
      let cons_id () = Printf.sprintf "c%d.%d.%d" e.e_node e.e_group e.e_a in
      let abcast_id () = Printf.sprintf "t%d" e.e_trace in
      if
        e.e_stage = Flight.propose && e.e_trace = 0
        && not (Hashtbl.mem open_cons inst)
      then begin
        Hashtbl.add open_cons inst ();
        async e ~cat:"consensus" ~ph:"b" (cons_id ())
      end
      else if e.e_stage = Flight.decide && Hashtbl.mem open_cons inst then begin
        Hashtbl.remove open_cons inst;
        async e ~cat:"consensus" ~ph:"e" (cons_id ())
      end
      else if
        e.e_stage = Flight.bcast && e.e_trace <> 0
        && not (Hashtbl.mem open_abcast e.e_trace)
      then begin
        Hashtbl.add open_abcast e.e_trace e.e_node;
        async e ~cat:"abcast" ~ph:"b" (abcast_id ())
      end
      else if
        e.e_stage = Flight.apply
        && Hashtbl.find_opt open_abcast e.e_trace = Some e.e_node
      then begin
        Hashtbl.remove open_abcast e.e_trace;
        async e ~cat:"abcast" ~ph:"e" (abcast_id ())
      end
      else instant e)
    events;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

(* ---- rendering ------------------------------------------------------ *)

let render ?(verbose = false) r =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "doctor: %s\n" r.dir;
  pf "  dumps: nodes [%s], %d events (%d overwritten in rings)\n"
    (String.concat ";" (List.map string_of_int r.nodes))
    r.events r.dropped;
  List.iter (fun (i, n) -> if n > 1 then pf "  node %d: %d boots\n" i n) r.boots;
  List.iter (fun n -> pf "  note: %s\n" n) r.notes;
  pf "  traces: %d sampled, %d fully reconstructed\n" (List.length r.traces)
    (reconstructed r);
  List.iter
    (fun t ->
      if verbose || not t.complete then begin
        pf "    %s (origin node %d)%s\n" (Trace_ctx.to_string t.tid) t.origin
          (if t.complete then "" else "  [incomplete]");
        let ev name = function
          | Some ti -> pf "      %-10s @%d us\n" name ti
          | None -> pf "      %-10s (missing)\n" name
        in
        ev "submit" t.submit_time;
        ev "bcast" t.bcast_time;
        List.iter (fun (n, ti) -> pf "      rx @ node %d @%d us\n" n ti) t.first_rx;
        List.iter (fun (j, ti) -> pf "      propose[%d] @%d us\n" j ti) t.proposes;
        ev "decide" t.decide_time;
        List.iter
          (fun (n, ti, pos) -> pf "      apply @ node %d pos %d @%d us\n" n pos ti)
          t.applies;
        ev "ack" t.ack_time
      end)
    r.traces;
  if r.stages <> [] then begin
    pf "  stage latency (us):\n";
    List.iter
      (fun s ->
        pf "    %-28s n=%-5d mean=%-10.1f max=%.1f\n" s.stage s.count s.mean_us
          s.max_us)
      r.stages
  end;
  if r.recoveries <> [] then begin
    pf "  recovery timeline:\n";
    List.iter
      (fun rv ->
        pf "    node %d boot %d: replayed %d records in %d us" rv.rv_node
          rv.rv_boot rv.rv_replay_records rv.rv_replay_us;
        if rv.rv_rounds > 0 || rv.rv_protocol_us > 0 then
          pf ", %d consensus rounds in %d us" rv.rv_rounds rv.rv_protocol_us;
        (match rv.rv_stjump with
        | Some (from_, to_) -> pf ", state transfer %d -> %d" from_ to_
        | None -> ());
        if rv.rv_caught_len >= 0 then
          pf ", caught up at length %d (%d us after boot)" rv.rv_caught_len
            rv.rv_caught_us
        else pf ", never caught up in this dump";
        pf "\n")
      r.recoveries
  end;
  if r.fd_flips <> [] then begin
    pf "  failure detector:\n";
    List.iter
      (fun f ->
        pf "    node %d g%d @%d us: %s node %d (epoch %d)" f.ff_node f.ff_group
          f.ff_time
          (if f.ff_suspect then "suspects" else "trusts")
          f.ff_peer f.ff_epoch;
        (match f.ff_next_decide with
        | Some t -> pf ", next decide here +%d us" (t - f.ff_time)
        | None -> if f.ff_suspect then pf ", no decide here after it");
        pf "\n")
      r.fd_flips
  end;
  (match r.audit with
  | Some a ->
    pf "  audit: %d chain grid points compared; %d client histories (%d \
        ops, %d lin reads checked)\n"
      a.au_chain_points a.au_histories a.au_events a.au_lin_reads
  | None -> ());
  if r.anomalies = [] then pf "  anomalies: none\n"
  else begin
    pf "  anomalies: %d\n" (List.length r.anomalies);
    List.iter (fun a -> pf "    [%s] %s\n" a.code a.detail) r.anomalies
  end;
  Buffer.contents b
