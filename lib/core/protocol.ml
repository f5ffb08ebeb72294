module Engine = Abcast_sim.Engine
module Flight = Abcast_sim.Flight
module Metrics = Abcast_sim.Metrics
module Histogram = Abcast_util.Histogram
module Heartbeat = Abcast_fd.Heartbeat
module Omega = Abcast_fd.Omega

module Wire = Abcast_util.Wire
module Ptbl = Payload.Id_tbl

(* Application-level checkpoint hooks (§5.2, Fig. 5), owned by the
   stable state that checkpoints and installs them. *)
type app = Stable.app = { checkpoint : unit -> string; install : string -> unit }

(* --- Configuration ---------------------------------------------------- *)
(* The basic protocol (Fig. 2) and the alternative protocol (Figs. 3-5)
   are settings of this one record (fields documented in protocol.mli);
   the presets below name the paper's two variants and the two
   ablation/tuning points the benches use. *)
type config = {
  gossip_period : int;
  checkpoint_period : int option;
  delta : int option;
  early_return : bool;
  incremental : bool;
  paranoid_log : bool;
  window : int;
  gossip_full_every : int;
  dissemination : [ `Gossip | `Ring ];
  trace_sample : int;
  audit : bool;
}

let paper_basic =
  {
    gossip_period = 3_000;
    checkpoint_period = None;
    delta = None;
    early_return = false;
    incremental = false;
    paranoid_log = false;
    window = 1;
    gossip_full_every = 8;
    dissemination = `Gossip;
    trace_sample = 0;
    audit = true;
  }

let paper_alternative =
  {
    paper_basic with
    checkpoint_period = Some 50_000;
    delta = Some 4;
    early_return = true;
    incremental = true;
  }

let naive = { paper_alternative with paranoid_log = true; incremental = false }

(* With ring dissemination the payloads never wait on a gossip tick —
   digests only repair a torn ring — so the preset slows the gossip task
   down (10ms instead of 3ms): under a heavy backlog every digest
   exchange costs per-stream scans at each receiver, and at 3ms that
   bookkeeping was a measurable slice of the per-payload budget. *)
let throughput =
  {
    paper_alternative with
    window = 4;
    dissemination = `Ring;
    gossip_period = 10_000;
    gossip_full_every = 32;
  }

let validate c =
  let reject what = invalid_arg ("Protocol.config: " ^ what) in
  if c.window < 1 then reject "window must be >= 1";
  if c.gossip_full_every < 1 then reject "gossip_full_every must be >= 1";
  if c.trace_sample < 0 then reject "trace_sample must be >= 0"

module Make (C : Abcast_consensus.Consensus_intf.S) = struct
  module M = Abcast_consensus.Multi.Make (C)

  (* Dissemination's messages ride under [Dissem] with no byte of their
     own: the tag space is split between this reader (3, 4 and 5) and
     {!Dissem.read_tagged} (every other tag, so 0, 1, 2 and 6). *)
  type msg =
    | Dissem of Dissem.msg
    | State of { k : int; floor : int; agreed : Agreed.repr }
    | Cons of M.msg
    | Fd of Heartbeat.msg

  (* --- Wire codec --------------------------------------------------- *)

  let write_msg w = function
    | Dissem m -> Dissem.write_msg w m
    | State { k; floor; agreed } ->
      Wire.write_u8 w 3;
      Wire.write_varint w k;
      Wire.write_varint w floor;
      Agreed.write_repr w agreed
    | Cons m ->
      Wire.write_u8 w 4;
      M.write_msg w m
    | Fd m ->
      Wire.write_u8 w 5;
      Heartbeat.write_msg w m

  let read_msg r =
    match Wire.read_u8 r with
    | 3 ->
      let k = Wire.read_varint r in
      let floor = Wire.read_varint r in
      let agreed = Agreed.read_repr r in
      State { k; floor; agreed }
    | 4 -> Cons (M.read_msg r)
    | 5 -> Fd (Heartbeat.read_msg r)
    | tag -> Dissem (Dissem.read_tagged tag r)

  let encode_msg m = Wire.to_string write_msg m

  let decode_msg s = Wire.of_string_opt read_msg s

  (* The engine-facing size memo (one per stack value, fed to
     [Engine.create]). Each node accounts its own sends through memos
     of its own ([t.size], {!Dissem}'s), so it never warms this slot. *)
  let msg_size = Wire.sizer write_msg

  (* Lifecycle record of one locally-broadcast message, from A-broadcast
     to local A-delivery (volatile — lost on crash like [pending] always
     was). [p_proposed] is -1 until the id first enters one of our
     proposals; the two stage latencies it splits the lifetime into are
     observed as [stage.broadcast_to_propose_us] (queueing/batching
     delay) and [stage.propose_to_adeliver_us] (consensus + delivery). *)
  type pend = {
    p_t0 : int;
    mutable p_proposed : int;
    p_cb : (Payload.id -> unit) option;
  }

  (* Interned per-node counters for the per-message paths. *)
  type handles = {
    h_delivered : Metrics.handle;
    h_broadcasts : Metrics.handle;
    h_rx_state : Metrics.handle;
    h_rx_cons : Metrics.handle;
    h_rx_fd : Metrics.handle;
    s_lat_deliver : Histogram.t;
    s_stage_b2p : Histogram.t;
    s_stage_p2d : Histogram.t;
  }

  type node = {
    io : msg Engine.io;
    cfg : config;
    on_deliver : Payload.t -> unit;
    hb : Heartbeat.t;
    multi : M.t;
    mh : handles;
    size : msg -> int; (* this node's own one-slot size memo *)
    mutable agreed : Agreed.t;
    unordered : Unordered.t;
    stable : Stable.t;
    batch : Batch.writers; (* this node's proposal encoder *)
    dissem : Dissem.t;
    mutable seq : int; (* local broadcast counter, volatile *)
    pending : pend Ptbl.t;
    mutable catchup_t0 : int;
        (* io.now at construction once [recover] finished, until the
           first delivery after it (the catch-up point); -1 otherwise *)
  }

  (* --- Delivery ----------------------------------------------------- *)

  (* One flight event on this node's recorder (a no-op unless the run
     wired a real recorder into the engine io — the live runtime does). *)
  let[@inline] flight t ~stage ~trace ~a ~b =
    Flight.record t.io.flight ~time:(t.io.now ()) ~node:t.io.self
      ~group:t.io.group ~boot:t.io.incarnation ~stage ~trace ~a ~b

  (* Chain grid: note the audit chain in the flight recorder whenever the
     delivery position crosses a multiple of this (power of two), so
     every node records hashes at the *same* positions and the doctor can
     compare them offline without any node-to-node coordination. *)
  let chain_grid_mask = 256 - 1

  let deliver_one t (p : Payload.t) =
    Metrics.hincr t.mh.h_delivered;
    if t.catchup_t0 >= 0 then begin
      let dt = t.io.now () - t.catchup_t0 in
      t.catchup_t0 <- -1;
      flight t ~stage:Flight.caught_up ~trace:0
        ~a:(Agreed.total_len t.agreed) ~b:dt;
      Metrics.add t.io.metrics ~node:t.io.self "recovery_catchup_us" dt
    end;
    if t.cfg.audit && Agreed.total_len t.agreed land chain_grid_mask = 0
    then
      flight t ~stage:Flight.chain ~trace:0 ~a:(Agreed.total_len t.agreed)
        ~b:(Agreed.chain t.agreed);
    if p.trace <> 0 then
      flight t ~stage:Flight.apply ~trace:p.trace
        ~a:(Agreed.total_len t.agreed) ~b:0;
    (match Ptbl.find_opt t.pending p.id with
    | Some pe ->
      Ptbl.remove t.pending p.id;
      let now = t.io.now () in
      Histogram.add t.mh.s_lat_deliver (float_of_int (now - pe.p_t0));
      if pe.p_proposed >= 0 then
        Histogram.add t.mh.s_stage_p2d (float_of_int (now - pe.p_proposed));
      (match pe.p_cb with Some f -> f p.id | None -> ())
    | None -> ());
    Unordered.remove t.unordered p.id;
    t.on_deliver p

  (* Checkpointing (§5.1/§5.2): the record, then the consensus log's
     truncation, then the Unordered log's retirement. *)
  let checkpoint_now t =
    Stable.checkpoint t.stable ~k:(M.cursor t.multi) t.agreed t.unordered
      ~truncate:(M.truncate_below t.multi)

  (* --- Sequencer (Fig. 2; windowed extension) ------------------------ *)

  let propose_at t j backlog =
    (* Propose [backlog] as one batch, cut at the bytes budget. The cut
       keeps the identity-sorted prefix, so every proposal carries
       contiguous per-stream prefixes of the backlog — which keeps
       delivery FIFO per stream even when a later instance decides while
       an earlier one chose a competing (possibly empty) proposal; the
       deterministic gap-skip at delivery covers the losing-proposal
       case. Duplicates across instances are removed at delivery, as the
       paper's idempotence requires; the excluded suffix stays in
       [Unordered] for the next instance of the window. *)
    let value, batch =
      Batch.encode_sorted_bounded t.batch ~max_bytes:Batch.max_bytes backlog
    in
    (* First time one of our own messages enters a proposal: close the
       batching-delay stage. The [p_proposed < 0] guard keeps re-proposals
       into later instances from double-counting. *)
    let now = t.io.now () in
    List.iter
      (fun (p : Payload.t) ->
        match Ptbl.find_opt t.pending p.id with
        | Some pe when pe.p_proposed < 0 ->
          pe.p_proposed <- now;
          Histogram.add t.mh.s_stage_b2p (float_of_int (now - pe.p_t0))
        | _ -> ())
      batch;
    if Flight.enabled t.io.flight then begin
      (* One untraced event per opened instance (the doctor's
         stuck-instance scan keys on these), plus one per sampled
         payload linking its trace to the instance that carries it. *)
      flight t ~stage:Flight.propose ~trace:0 ~a:j ~b:(List.length batch);
      List.iter
        (fun (p : Payload.t) ->
          if p.trace <> 0 then
            flight t ~stage:Flight.propose ~trace:p.trace ~a:j ~b:0)
        batch
    end;
    List.iter (fun (p : Payload.t) -> Unordered.cover t.unordered j p.id) batch;
    M.propose t.multi j value

  let maybe_propose t =
    (* Walk the window: instances are opened strictly in order (the first
       locally unproposed, undecided instance), so no instance is ever
       skipped and every one eventually runs a consensus. A backlog wider
       than the bytes budget keeps the walk going: each further instance
       gets the still-uncovered suffix (pipelining). *)
    let k = M.cursor t.multi in
    let rec walk j =
      if j < M.cursor t.multi + t.cfg.window then
        match (M.decision t.multi j, M.proposal t.multi j) with
        | Some _, _ | None, Some _ -> walk (j + 1)
        | None, None ->
          (* Each instance proposes the slice of the backlog no
             outstanding proposal of ours covers (recomputed after the
             previous [propose_at] extended the coverage), so pipelined
             proposals are disjoint: re-proposing a covered entry would
             only decide a duplicate and waste a round's bytes. *)
          let backlog =
            Unordered.uncovered t.unordered ~vc:(Agreed.vc t.agreed)
              ~committed:(M.cursor t.multi)
          in
          let trigger = backlog <> [] || (j = k && M.behind t.multi) in
          if trigger then begin
            propose_at t j backlog;
            walk (j + 1)
          end
    in
    walk k

  let apply_decision t v =
    List.iter
      (fun (p : Payload.t) ->
        (* A decided batch can carry a payload whose stream predecessor
           we have not delivered yet only in degenerate schedules (e.g. a
           re-proposal surviving a crash that also lost Unordered items);
           every applier of this instance shares our Agreed state, so the
           skip is deterministic and the payload — still in [Unordered]
           somewhere — gets re-proposed and delivered later. We park it
           until its predecessor arrives: the predecessor may be lost
           for good (a bad origin whose A-broadcast was never logged). *)
        match Agreed.try_append t.agreed p with
        | `Appended -> deliver_one t p
        | `Dup -> Unordered.remove t.unordered p.id
        | `Gap ->
          Unordered.park t.unordered p.id;
          Metrics.incr t.io.metrics ~node:t.io.self "ab_gap_skips")
      (Batch.decode v);
    Dissem.settle t.dissem;
    M.seek t.multi (M.cursor t.multi + 1);
    if t.cfg.paranoid_log then checkpoint_now t

  (* Apply every decision at the cursor, in instance order. [M.decision]
     reads the stable decision log for an instance this incarnation has
     not created yet, which is all recovery's replay needs. *)
  let rec apply_ready t =
    match M.decision t.multi (M.cursor t.multi) with
    | Some v ->
      apply_decision t v;
      apply_ready t
    | None -> ()

  let drain_decisions t =
    apply_ready t;
    maybe_propose t;
    M.chase t.multi

  (* --- State transfer (§5.3) ---------------------------------------- *)

  (* A Δ-triggered transfer knows the recipient's delivery length and
     ships only the suffix it is missing. *)
  let send_state ?for_len t dst =
    let agreed = Stable.snapshot_for t.agreed ~for_len in
    let m = State { k = M.cursor t.multi; floor = M.floor t.multi; agreed } in
    Metrics.add t.io.metrics ~node:t.io.self "state_bytes_sent" (t.size m);
    Metrics.incr t.io.metrics ~node:t.io.self "state_sent";
    t.io.send dst m

  (* Adopt past Δ, or below the donor's truncation floor, where the
     instances we would replay are gone (§5.3). A trimmed repr we cannot
     use (a crash put us below the len we advertised) is skipped: the
     donor re-sends against our fresher len. *)
  let on_state t ~src:_ ks ~floor (repr : Agreed.repr) =
    if
      Stable.adoptable ~delta:t.cfg.delta ~committed:(M.cursor t.multi) t.agreed
        ~k:ks ~floor repr
    then begin
      (* The jump event excuses the skipped instances in the doctor's
         delivery-gap scan: adopted prefixes never saw local decides. *)
      flight t ~stage:Flight.stjump ~trace:0 ~a:(M.cursor t.multi) ~b:ks;
      (* "Terminate task sequencer": in-flight decisions below [ks] are
         ignored from now on because the commit cursor jumps past them. *)
      List.iter (deliver_one t) (Stable.adopt t.stable t.agreed repr);
      M.seek t.multi ks;
      (* Drop everything the adopted prefix already ordered. *)
      Unordered.drop_if t.unordered (Agreed.contains t.agreed);
      Dissem.settle t.dissem;
      Stable.persist_jump t.stable ~k:ks t.agreed;
      Metrics.incr t.io.metrics ~node:t.io.self "state_transfers_applied";
      drain_decisions t
    end
    else
      (* Small de-synchronization: treat like a gossip round hint. *)
      M.hear t.multi ks

  (* Every dissemination message carries the sender's decided count [k]
     and Agreed length [len]: note how far the group has got, hand a
     peer lagging by more than Δ a State (§5.3), then drain. *)
  let on_peer_progress t ~src ~k ~len =
    M.hear t.multi k;
    (match t.cfg.delta with
    | Some delta when M.cursor t.multi > k + delta ->
      send_state ~for_len:len t src
    | _ -> ());
    drain_decisions t

  (* --- A-broadcast --------------------------------------------------- *)

  let broadcast t ?on_agreed data =
    let seq = t.seq in
    let id = { Payload.origin = t.io.self; boot = t.io.incarnation; seq } in
    t.seq <- t.seq + 1;
    (* Sampling is deterministic (every [trace_sample]-th local seq), so
       a fixed fraction of broadcasts is traced without an RNG draw on
       the hot path. The stamp packs (seq, group, boot) so it stays
       unique across shard groups and reboots of the same node. *)
    let trace =
      let s = t.cfg.trace_sample in
      if
        s > 0
        && seq mod s = 0
        && t.io.self <= Trace_ctx.max_node
        && seq <= Trace_ctx.max_stamp lsr 10
      then
        Trace_ctx.make ~node:t.io.self
          ~stamp:
            ((((seq lsl 4) lor (t.io.group land 0xf)) lsl 6)
            lor (t.io.incarnation land 0x3f))
      else Trace_ctx.none
    in
    let p = { Payload.id; data; trace } in
    if trace <> 0 then
      flight t ~stage:Flight.bcast ~trace ~a:seq ~b:(String.length data);
    Unordered.add t.unordered ~vc:(Agreed.vc t.agreed) p;
    Ptbl.replace t.pending id
      { p_t0 = t.io.now (); p_proposed = -1; p_cb = on_agreed };
    Metrics.hincr t.mh.h_broadcasts;
    Stable.log_add t.stable t.unordered p;
    Dissem.forward t.dissem p;
    maybe_propose t;
    id

  (* --- Recovery (§4.2 "Recovery", §5.1) ------------------------------ *)

  let recover t =
    let t0 = t.io.now () in
    (match Stable.last_checkpoint t.stable with
    | Some (k, agreed) ->
      M.seek t.multi k;
      t.agreed <- agreed;
      (* The upper layer is volatile: re-deliver the explicit tail so it
         rebuilds its state on top of the installed checkpoint. *)
      List.iter (deliver_one t) (Agreed.tail agreed)
    | None -> ());
    Stable.restore t.stable t.agreed t.unordered;
    (* Replay: walk the consensus log upward from the checkpoint. *)
    let k0 = M.cursor t.multi in
    apply_ready t;
    let rounds = M.cursor t.multi - k0 in
    if rounds > 0 then
      Metrics.add t.io.metrics ~node:t.io.self "replay_rounds" rounds;
    let dt = t.io.now () - t0 in
    Metrics.add t.io.metrics ~node:t.io.self "recovery_protocol_us" dt;
    flight t ~stage:Flight.replay_done ~trace:0 ~a:rounds ~b:dt;
    (* Re-propose every logged, still-undecided proposal — with a window
       there can be several in flight (idempotent, P4) — and cover what
       they carry that is not ordered yet. *)
    List.iter
      (fun (j, v) ->
        List.iter
          (fun (p : Payload.t) ->
            if not (Agreed.contains t.agreed p.id) then
              Unordered.cover t.unordered j p.id)
          (Batch.decode v);
        M.propose t.multi j v)
      (M.logged_proposal_instances t.multi)

  let create ?app cfg io ~on_deliver =
    validate cfg;
    let boot_t0 = io.Engine.now () in
    let tref = ref None in
    let with_t f = match !tref with Some t -> f t | None -> () in
    let hb = Heartbeat.create (Engine.map_io (fun m -> Fd m) io) in
    (* Every frame is liveness evidence at its receiver: the detector
       sees our sends and beats only into silence. *)
    let io = Heartbeat.watch hb io in
    let multi =
      M.create
        (Engine.map_io (fun m -> Cons m) io)
        ~leader:(Omega.of_heartbeat hb)
        ~on_ready:(fun () -> with_t drain_decisions)
        ~on_behind:(fun ~src -> with_t (fun t -> send_state t src))
    in
    let metrics = io.Engine.metrics in
    let self = io.Engine.self in
    let h name = Metrics.handle metrics ~node:self name in
    let mh =
      {
        h_delivered = h "ab_delivered";
        h_broadcasts = h "ab_broadcasts";
        h_rx_state = h "rx.state";
        h_rx_cons = h "rx.consensus";
        h_rx_fd = h "rx.fd";
        s_lat_deliver = Metrics.hist metrics ~node:self "lat_deliver";
        s_stage_b2p =
          Metrics.hist metrics ~node:self "stage.broadcast_to_propose_us";
        s_stage_p2d =
          Metrics.hist metrics ~node:self "stage.propose_to_adeliver_us";
      }
    in
    let unordered = Unordered.create () in
    let dissem =
      Dissem.create ~period:cfg.gossip_period
        ~full_every:cfg.gossip_full_every ~dissemination:cfg.dissemination
        ~audit:cfg.audit
        (Engine.map_io (fun m -> Dissem m) io)
        unordered
        ~agreed:(fun () -> (Option.get !tref).agreed)
        ~cursor:(fun () -> M.cursor multi)
        ~on_progress:(fun ~src ~k ~len ->
          with_t (fun t -> on_peer_progress t ~src ~k ~len))
    in
    let t =
      {
        io;
        cfg;
        on_deliver;
        hb;
        multi;
        mh;
        size = Wire.sizer write_msg;
        agreed = Agreed.create ();
        unordered;
        stable =
          Stable.create io.Engine.store ~self ~boot:io.Engine.incarnation ~app
            ~early_return:cfg.early_return ~incremental:cfg.incremental;
        batch = Batch.writers ();
        dissem;
        seq = 0;
        pending = Ptbl.create 32;
        catchup_t0 = -1;
      }
    in
    tref := Some t;
    recover t;
    t.catchup_t0 <- boot_t0;
    Dissem.start dissem;
    (match cfg.checkpoint_period with
    | Some period ->
      let rec checkpoint_loop () =
        ignore
          (t.io.after period (fun () ->
               checkpoint_now t;
               checkpoint_loop ()))
      in
      checkpoint_loop ()
    | None -> ());
    t

  let node_handler t ~src msg =
    Heartbeat.heard t.hb ~src;
    match msg with
    | Dissem m -> Dissem.handle t.dissem ~src m
    | State { k; floor; agreed } ->
      Metrics.hincr t.mh.h_rx_state;
      on_state t ~src k ~floor agreed
    | Cons m ->
      Metrics.hincr t.mh.h_rx_cons;
      M.handle t.multi ~src m
    | Fd m ->
      Metrics.hincr t.mh.h_rx_fd;
      Heartbeat.handle t.hb ~src m

  type t = node

  let handler = node_handler

  let round t = M.cursor t.multi

  let unordered_count t = Unordered.count t.unordered

  let delivered_count t = Agreed.total_len t.agreed

  let delivered_tail t = Agreed.tail t.agreed

  let delivery_vc t = Agreed.vc t.agreed

  let agreed_snapshot t = Agreed.snapshot t.agreed

  let floor t = M.floor t.multi
end
