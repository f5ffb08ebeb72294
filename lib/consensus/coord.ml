module Engine = Abcast_sim.Engine
module Storage = Abcast_sim.Storage
module Metrics = Abcast_sim.Metrics
module Rng = Abcast_util.Rng
open Consensus_intf

let name = "coord"

let round_timeout = 12_000

type msg =
  | Estimate of { r : int; v : value; ts : int }
  | Proposal of { r : int; v : value }
  | Ack of { r : int }
  | Query
  | Decide of { v : value }

module Wire = Abcast_util.Wire

let write_msg w = function
  | Estimate { r; v; ts } ->
    Wire.write_u8 w 0;
    Wire.write_varint w r;
    Wire.write_string w v;
    (* ts is -1 for a never-locked estimate: zigzag keeps it one byte *)
    Wire.write_varint w ts
  | Proposal { r; v } ->
    Wire.write_u8 w 1;
    Wire.write_varint w r;
    Wire.write_string w v
  | Ack { r } ->
    Wire.write_u8 w 2;
    Wire.write_varint w r
  | Query -> Wire.write_u8 w 3
  | Decide { v } ->
    Wire.write_u8 w 4;
    Wire.write_string w v

let read_msg r =
  match Wire.read_u8 r with
  | 0 ->
    let rr = Wire.read_varint r in
    let v = Wire.read_string r in
    let ts = Wire.read_varint r in
    Estimate { r = rr; v; ts }
  | 1 ->
    let rr = Wire.read_varint r in
    let v = Wire.read_string r in
    Proposal { r = rr; v }
  | 2 -> Ack { r = Wire.read_varint r }
  | 3 -> Query
  | 4 -> Decide { v = Wire.read_string r }
  | t -> Wire.error "coord: bad message tag %d" t

(* Durable: adopted estimate and the round in which it was adopted. Logged
   before acking so a decision quorum survives crashes. *)
type locked = { est : value; ts : int }

let locked_codec =
  ( Wire.to_string (fun w l ->
        Wire.write_string w l.est;
        Wire.write_varint w l.ts),
    Wire.of_string_opt (fun r ->
        let est = Wire.read_string r in
        let ts = Wire.read_varint r in
        { est; ts }) )

type t = {
  io : msg Engine.io;
  k : int;
  on_decide : value -> unit;
  locked_slot : locked Storage.Slot.slot;
  mutable locked : locked option;
  mutable proposal : value option;
  mutable decided : value option;
  mutable round : int;
  mutable estimates : (int * (value * int)) list; (* as coordinator *)
  mutable acks : int list; (* as coordinator *)
  mutable proposed_round : value option; (* our round-r proposal, as coord *)
  mutable timer_round : int; (* the round [timers] belong to *)
  mutable timers : Engine.Timer.t list;
      (* the current round's timers (a re-entered round arms another; the
         first to fire wins): a new round or the decision cancels them *)
  mutable ticking : bool;
  mutable proposed_at : int; (* sim time of our first propose, -1 if none *)
  mutable learned_from : int;
      (* who told us the decision: self if we coordinated it and
         announced it, -1 if it was restored from the log *)
}

let majority t = (t.io.n / 2) + 1

let coord_of t r = r mod t.io.n

(* The estimate we would send: the locked one if any, else our proposal. *)
let current_estimate t =
  match t.locked with
  | Some { est; ts } -> Some (est, ts)
  | None -> ( match t.proposal with Some v -> Some (v, -1) | None -> None)

(* [src] told us the decision; only the coordinator that gathered the
   acks ([src] = self) announces it, and a node that learned it from a
   Decide does not echo it, so a failure-free instance carries n-1
   Decide frames. A lost Decide heals at the next round: the member's
   [Estimate] (or [Query]) reaches a decided peer, which answers it. *)
let decide t ~src v =
  match t.decided with
  | Some _ -> ()
  | None ->
    t.decided <- Some v;
    List.iter Engine.Timer.cancel t.timers;
    Storage.write t.io.store ~layer:Keys.layer ~key:(Keys.decision t.k) v;
    if t.proposed_at >= 0 then begin
      Metrics.observe t.io.metrics ~node:t.io.self "cons.propose_to_decide_us"
        (float_of_int (t.io.now () - t.proposed_at));
      Metrics.observe t.io.metrics ~node:t.io.self "cons.rounds"
        (float_of_int (t.round + 1))
    end;
    t.learned_from <- src;
    if src = t.io.self then t.io.multisend (Decide { v });
    t.on_decide v

let timeout_for t r =
  let scale = min 10 (1 + (r / t.io.n)) in
  (round_timeout * scale) + Rng.int t.io.rng (round_timeout / 4 + 1)

let rec enter_round t r =
  if t.decided = None then begin
    t.round <- r;
    t.estimates <- [];
    t.acks <- [];
    t.proposed_round <- None;
    (match current_estimate t with
    | Some (v, ts) -> t.io.send (coord_of t r) (Estimate { r; v; ts })
    | None -> t.io.multisend Query);
    arm_timer t r
  end

and arm_timer t r =
  if r <> t.timer_round then begin
    List.iter Engine.Timer.cancel t.timers;
    t.timers <- [];
    t.timer_round <- r
  end;
  t.timers <-
    t.io.after (timeout_for t r) (fun () -> enter_round t (r + 1)) :: t.timers

type node = unit

let node _ = ()

let create io ~node:() ~instance ~leader:_ ~on_decide =
  let locked_slot =
    Storage.Slot.make ~codec:locked_codec io.Engine.store ~layer:Keys.layer
      ~key:(Keys.inst instance "coord.locked")
  in
  let locked = Storage.Slot.get locked_slot in
  let t =
    {
      io;
      k = instance;
      on_decide;
      locked_slot;
      locked;
      proposal = Storage.read io.store (Keys.proposal instance);
      decided = Storage.read io.store (Keys.decision instance);
      round = (match locked with Some { ts; _ } -> max 0 ts | None -> 0);
      estimates = [];
      acks = [];
      proposed_round = None;
      timer_round = -1;
      timers = [];
      ticking = false;
      proposed_at = -1;
      learned_from = -1;
    }
  in
  (* A restored proposal counts as proposed "now": the propose→decide
     clock measures this incarnation's completion cost. *)
  if t.proposal <> None && t.decided = None then begin
    t.proposed_at <- t.io.now ();
    t.ticking <- true;
    enter_round t t.round
  end;
  t

let propose t v =
  (match t.proposal with
  | Some _ -> ()
  | None ->
    t.proposal <- Some v;
    if t.proposed_at < 0 then t.proposed_at <- t.io.now ();
    Storage.write t.io.store ~layer:Keys.layer ~key:(Keys.proposal t.k) v);
  if t.decided = None && not t.ticking then begin
    t.ticking <- true;
    enter_round t t.round
  end

let proposal t = t.proposal

let decision t = t.decided

let probe t = if t.decided = None then t.io.multisend Query

(* Joining a higher round when evidence shows others are ahead. *)
let maybe_fast_forward t r = if r > t.round && t.decided = None then enter_round t r

let coordinator_maybe_propose t =
  if
    t.proposed_round = None
    && coord_of t t.round = t.io.self
    && List.length t.estimates >= majority t
  then begin
    let _, (v, _) =
      List.fold_left
        (fun ((_, (_, best_ts)) as best) ((_, (_, ts)) as cand) ->
          if ts > best_ts then cand else best)
        (List.hd t.estimates) (List.tl t.estimates)
    in
    t.proposed_round <- Some v;
    t.io.multisend (Proposal { r = t.round; v })
  end

let handle t ~src msg =
  match t.decided with
  | Some v -> (
    match msg with
    | Decide _ -> ()
    | (Ack { r } | Estimate { r; _ })
      when t.learned_from = t.io.self && r = t.round ->
      () (* a late answer in the round our Decide closed *)
    | _ when src = t.learned_from -> () (* src told us *)
    | _ -> t.io.send src (Decide { v }))
  | None -> (
    match msg with
    | Estimate { r; v; ts } ->
      maybe_fast_forward t r;
      if r = t.round && coord_of t r = t.io.self then begin
        if not (List.mem_assoc src t.estimates) then
          t.estimates <- (src, (v, ts)) :: t.estimates;
        coordinator_maybe_propose t
      end
    | Proposal { r; v } ->
      maybe_fast_forward t r;
      if r = t.round then begin
        (* Lock before acking: the crash-recovery-critical step. *)
        let l = { est = v; ts = r } in
        t.locked <- Some l;
        Storage.Slot.set t.locked_slot l;
        t.io.send (coord_of t r) (Ack { r })
      end
    | Ack { r } ->
      if r = t.round && coord_of t r = t.io.self then begin
        if not (List.mem src t.acks) then t.acks <- src :: t.acks;
        if List.length t.acks >= majority t then
          match t.proposed_round with
          | Some v -> decide t ~src:t.io.self v
          | None -> () (* acks for a proposal of a previous incarnation *)
      end
    | Query -> ()
    | Decide { v } -> decide t ~src v)
