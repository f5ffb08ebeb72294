module Engine = Abcast_sim.Engine
module Storage = Abcast_sim.Storage
module Metrics = Abcast_sim.Metrics
module Rng = Abcast_util.Rng
open Consensus_intf

let name = "paxos"

let retry_period = ref 8_000

type msg =
  | Prepare of { b : int }
  | Promise of { b : int; accepted : (int * value) option }
  | Reject of { b : int } (* nack carrying the promise that blocked us *)
  | Accept of { b : int; v : value }
  | Accepted of { b : int }
  | Query
  | Decide of { v : value }

let pp_msg ppf = function
  | Prepare { b } -> Format.fprintf ppf "prepare(%d)" b
  | Promise { b; accepted = None } -> Format.fprintf ppf "promise(%d,-)" b
  | Promise { b; accepted = Some (ab, _) } ->
    Format.fprintf ppf "promise(%d,acc@%d)" b ab
  | Reject { b } -> Format.fprintf ppf "reject(%d)" b
  | Accept { b; _ } -> Format.fprintf ppf "accept(%d)" b
  | Accepted { b } -> Format.fprintf ppf "accepted(%d)" b
  | Query -> Format.fprintf ppf "query"
  | Decide _ -> Format.fprintf ppf "decide"

module Wire = Abcast_util.Wire

let write_accepted w (b, v) =
  Wire.write_varint w b;
  Wire.write_string w v

let read_accepted r =
  let b = Wire.read_varint r in
  let v = Wire.read_string r in
  (b, v)

let write_msg w = function
  | Prepare { b } ->
    Wire.write_u8 w 0;
    Wire.write_varint w b
  | Promise { b; accepted } ->
    Wire.write_u8 w 1;
    Wire.write_varint w b;
    Wire.write_option write_accepted w accepted
  | Reject { b } ->
    Wire.write_u8 w 2;
    Wire.write_varint w b
  | Accept { b; v } ->
    Wire.write_u8 w 3;
    Wire.write_varint w b;
    Wire.write_string w v
  | Accepted { b } ->
    Wire.write_u8 w 4;
    Wire.write_varint w b
  | Query -> Wire.write_u8 w 5
  | Decide { v } ->
    Wire.write_u8 w 6;
    Wire.write_string w v

let read_msg r =
  match Wire.read_u8 r with
  | 0 -> Prepare { b = Wire.read_varint r }
  | 1 ->
    let b = Wire.read_varint r in
    let accepted = Wire.read_option read_accepted r in
    Promise { b; accepted }
  | 2 -> Reject { b = Wire.read_varint r }
  | 3 ->
    let b = Wire.read_varint r in
    let v = Wire.read_string r in
    Accept { b; v }
  | 4 -> Accepted { b = Wire.read_varint r }
  | 5 -> Query
  | 6 -> Decide { v = Wire.read_string r }
  | t -> Wire.error "paxos: bad message tag %d" t

type acc_state = { promised : int; accepted : (int * value) option }

(* The per-instance acceptor log: written before every promise/accept
   answer, so its encode is a consensus hot path. *)
let acc_codec =
  ( Wire.to_string (fun w a ->
        Wire.write_varint w a.promised;
        Wire.write_option write_accepted w a.accepted),
    Wire.of_string_opt (fun r ->
        let promised = Wire.read_varint r in
        let accepted = Wire.read_option read_accepted r in
        { promised; accepted }) )

type phase = Idle | Phase1 | Phase2

type t = {
  io : msg Engine.io;
  k : int;
  leader : Abcast_fd.Omega.t;
  on_decide : value -> unit;
  acc_slot : acc_state Storage.Slot.slot;
  mutable acc : acc_state;
  mutable proposal : value option;
  mutable decided : value option;
  mutable round : int; (* our ballot = round * n + self *)
  mutable phase : phase;
  mutable promises : (int * (int * value) option) list;
  mutable accepts : int list;
  mutable pushing : value option; (* value of our ongoing phase 2 *)
  mutable ticking : bool;
  mutable proposed_at : int; (* sim time of our first propose, -1 if none *)
}

let majority t = (t.io.n / 2) + 1

let ballot t = (t.round * t.io.n) + t.io.self

let set_acc t acc =
  t.acc <- acc;
  Storage.Slot.set t.acc_slot acc

let decide t v =
  match t.decided with
  | Some _ -> ()
  | None ->
    t.decided <- Some v;
    Storage.write t.io.store ~layer:Keys.layer ~key:(Keys.decision t.k) v;
    t.phase <- Idle;
    if t.proposed_at >= 0 then begin
      Metrics.observe t.io.metrics ~node:t.io.self "cons.propose_to_decide_us"
        (float_of_int (t.io.now () - t.proposed_at));
      Metrics.observe t.io.metrics ~node:t.io.self "cons.ballots"
        (float_of_int (max 1 t.round))
    end;
    t.io.multisend (Decide { v });
    t.on_decide v

let start_ballot t =
  t.round <- t.round + 1;
  t.phase <- Phase1;
  t.promises <- [];
  t.accepts <- [];
  t.pushing <- None;
  t.io.multisend (Prepare { b = ballot t })

let rec tick t =
  if t.decided = None then begin
    (match t.proposal with
    | Some _ when t.leader () = t.io.self -> start_ballot t
    | _ -> t.io.multisend Query);
    let jitter = Rng.int t.io.rng (!retry_period / 2 + 1) in
    t.io.after (!retry_period + jitter) (fun () -> tick t)
  end
  else t.ticking <- false

(* A leader holding a proposal starts phase 1 at once; the timer only
   paces its retries. Anyone else waits a small random offset first,
   which desynchronizes competing proposers. *)
let ensure_ticking t =
  if (not t.ticking) && t.decided = None then begin
    t.ticking <- true;
    if t.proposal <> None && t.leader () = t.io.self then tick t
    else
      t.io.after (1 + Rng.int t.io.rng (!retry_period / 4 + 1)) (fun () -> tick t)
  end

let create io ~instance ~leader ~on_decide =
  let acc_slot =
    Storage.Slot.make ~codec:acc_codec io.Engine.store ~layer:Keys.layer
      ~key:(Keys.inst instance "paxos.acc")
  in
  let acc =
    match Storage.Slot.get acc_slot with
    | Some a -> a
    | None -> { promised = 0; accepted = None }
  in
  let t =
    {
      io;
      k = instance;
      leader;
      on_decide;
      acc_slot;
      acc;
      proposal = Storage.read io.store (Keys.proposal instance);
      decided = Storage.read io.store (Keys.decision instance);
      round = (match Storage.Slot.get acc_slot with
              | Some a -> (a.promised / io.n) + 1
              | None -> 0);
      phase = Idle;
      promises = [];
      accepts = [];
      pushing = None;
      ticking = false;
      proposed_at = -1;
    }
  in
  (* A proposal restored from the log counts as proposed "now": the
     propose→decide clock then measures this incarnation's completion
     cost, not time spent crashed. *)
  if t.proposal <> None && t.decided = None then begin
    t.proposed_at <- t.io.now ();
    ensure_ticking t
  end;
  t

let propose t v =
  (match t.proposal with
  | Some _ -> () (* P4: the first logged proposal is the one that counts *)
  | None ->
    t.proposal <- Some v;
    if t.proposed_at < 0 then t.proposed_at <- t.io.now ();
    Storage.write t.io.store ~layer:Keys.layer ~key:(Keys.proposal t.k) v);
  if t.decided = None then ensure_ticking t

let proposal t = t.proposal

let decision t = t.decided

let add_promise t src acc =
  if not (List.mem_assoc src t.promises) then
    t.promises <- (src, acc) :: t.promises

let best_accepted promises =
  List.fold_left
    (fun best (_, acc) ->
      match (best, acc) with
      | None, x -> x
      | Some _, None -> best
      | Some (bb, _), Some (ab, _) when ab <= bb -> best
      | Some _, Some x -> Some x)
    None promises

let handle t ~src msg =
  match t.decided with
  | Some v -> ( match msg with Decide _ -> () | _ -> t.io.send src (Decide { v }))
  | None -> (
    match msg with
    | Prepare { b } ->
      if b > t.acc.promised then begin
        set_acc t { t.acc with promised = b };
        t.io.send src (Promise { b; accepted = t.acc.accepted })
      end
      else t.io.send src (Reject { b = t.acc.promised })
    | Promise { b; accepted } ->
      if t.phase = Phase1 && b = ballot t then begin
        add_promise t src accepted;
        if List.length t.promises >= majority t then begin
          let v =
            match best_accepted t.promises with
            | Some (_, v) -> v
            | None -> (
              match t.proposal with
              | Some v -> v
              | None -> assert false (* phase 1 only runs after propose *))
          in
          t.phase <- Phase2;
          t.accepts <- [];
          t.pushing <- Some v;
          t.io.multisend (Accept { b; v })
        end
      end
    | Reject { b } ->
      if b > ballot t then begin
        t.round <- b / t.io.n;
        t.phase <- Idle
      end
    | Accept { b; v } ->
      if b >= t.acc.promised then begin
        set_acc t { promised = b; accepted = Some (b, v) };
        t.io.send src (Accepted { b })
      end
      else t.io.send src (Reject { b = t.acc.promised })
    | Accepted { b } ->
      if t.phase = Phase2 && b = ballot t then begin
        if not (List.mem src t.accepts) then t.accepts <- src :: t.accepts;
        if List.length t.accepts >= majority t then
          match t.pushing with Some v -> decide t v | None -> assert false
      end
    | Query -> () (* nothing to offer: not decided *)
    | Decide { v } -> decide t v)
