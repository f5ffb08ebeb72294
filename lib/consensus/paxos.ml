module Engine = Abcast_sim.Engine
module Storage = Abcast_sim.Storage
module Metrics = Abcast_sim.Metrics
module Rng = Abcast_util.Rng
open Consensus_intf

let name = "paxos"

let retry_period = 8_000

type msg =
  | Prepare of { b : int }
  | Promise of {
      b : int;
      accepted : (int * value) option;
      above : (int * int) list;
    }
  | Reject of { b : int } (* nack carrying the promise that blocked us *)
  | Accept of { b : int; v : value }
  | Accepted of { b : int }
  | Query
  | Decide of { v : value }

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
  | Promise { b; accepted; above } ->
    Wire.write_u8 w 1;
    Wire.write_varint w b;
    Wire.write_option write_accepted w accepted;
    Wire.write_list
      (fun w (j, ab) ->
        Wire.write_varint w j;
        Wire.write_varint w ab)
      w above
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
    let above =
      Wire.read_list
        (fun r ->
          let j = Wire.read_varint r in
          let ab = Wire.read_varint r in
          (j, ab))
        r
    in
    Promise { b; accepted; above }
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

let acc_key k = Keys.inst k "paxos.acc"

let accepted store ~instance =
  match Storage.read store (acc_key instance) with
  | Some s -> ( match snd acc_codec s with Some a -> a.accepted | None -> None)
  | None -> None

(* The node-wide promise: no ballot below it is accepted in any
   instance. It sits outside the [cons/] prefix, so truncation keeps it. *)
let promise_key = "cons.paxos.promise"

(* The leader's view of its phase 1. [Opening] is the Prepare of instance
   [k] at ballot [b] in flight; once a majority has promised, [Held]
   lets every instance from [from] on, except [excluded] (instances some
   promiser had already accepted), skip phase 1 at [b]. *)
type term =
  | No_term
  | Opening of { b : int; k : int }
  | Held of { b : int; from : int; excluded : int list }

type node = {
  store : Storage.t;
  mutable promise : int; (* durable node-wide promise *)
  mutable top : int; (* no instance above it holds acceptor state here *)
  mutable high : int; (* highest ballot a peer's Reject or Accept showed us *)
  mutable term : term;
}

let node (io : _ Engine.io) =
  let promise =
    match Storage.read io.store promise_key with
    | Some s -> int_of_string s
    | None -> 0
  in
  let top =
    match List.rev (Storage.keys_with_prefix io.store Keys.prefix) with
    | key :: _ -> Option.value ~default:(-1) (Keys.instance_of_key key)
    | [] -> -1
  in
  { store = io.store; promise; top; high = 0; term = No_term }

let raise_promise nd b =
  if b > nd.promise then begin
    nd.promise <- b;
    Storage.write nd.store ~layer:Keys.layer ~key:promise_key (string_of_int b)
  end

let term_ballot nd =
  match nd.term with No_term -> 0 | Opening { b; _ } | Held { b; _ } -> b

type phase = Idle | Phase1 | Phase2

type t = {
  io : msg Engine.io;
  k : int;
  node : node;
  leader : Abcast_fd.Omega.t;
  on_decide : value -> unit;
  acc_slot : acc_state Storage.Slot.slot;
  mutable acc : acc_state;
  mutable proposal : value option;
  mutable decided : value option;
  mutable ballot : int; (* our latest ballot here, 0 if none *)
  mutable ballots : int; (* ballots this incarnation ran here *)
  mutable phase : phase;
  mutable promises : (int * (int * value) option) list;
  mutable listed : int list; (* instances the counted promises listed *)
  mutable accepts : int list;
  mutable pushing : value option; (* value of our ongoing phase 2 *)
  mutable timer : Engine.Timer.t; (* the retry tick; cancelled at decide *)
  mutable proposed_at : int; (* sim time of our first propose, -1 if none *)
  mutable learned_from : int;
      (* who told us the decision: self if we completed phase 2, -1 if
         no peer is known to hold it (restored from the log, or learned
         on accepting: our Accepted may never reach the leader) *)
}

let majority t = (t.io.n / 2) + 1

(* An Accept carries its sender's acceptance, so accepting one makes
   two: a majority at n <= 3. *)
let learns_on_accept t = majority t <= 2

let set_acc t acc =
  t.acc <- acc;
  Storage.Slot.set t.acc_slot acc

(* The acceptor step at ballot [b], for a peer's Accept and for our own
   before we send one: log [(b, v)] as accepted, unless a higher promise
   blocks [b]. *)
let accept t b v =
  let nd = t.node in
  let ok = b >= t.acc.promised && b >= nd.promise in
  if ok then begin
    set_acc t { promised = b; accepted = Some (b, v) };
    nd.top <- max nd.top t.k
  end;
  ok

(* [src] told us the decision. Only the node that completed phase 2
   ([src] = self) announces it, and only above three nodes: at n <= 3
   every follower that accepted has decided, so a failure-free instance
   carries no Decide frame (n-1 above three). A learner never echoes;
   a missed Accept or Decide heals through the learner's [Query], which
   every decided peer answers. *)
let decide t ~src v =
  match t.decided with
  | Some _ -> ()
  | None ->
    t.decided <- Some v;
    Engine.Timer.cancel t.timer;
    Storage.write t.io.store ~layer:Keys.layer ~key:(Keys.decision t.k) v;
    t.phase <- Idle;
    (match t.node.term with
    | Opening { k; _ } when k = t.k -> t.node.term <- No_term
    | _ -> ());
    if t.proposed_at >= 0 then begin
      Metrics.observe t.io.metrics ~node:t.io.self "cons.propose_to_decide_us"
        (float_of_int (t.io.now () - t.proposed_at));
      Metrics.observe t.io.metrics ~node:t.io.self "cons.ballots"
        (float_of_int (max 1 t.ballots))
    end;
    t.learned_from <- src;
    if src = t.io.self && not (learns_on_accept t) then
      t.io.multisend (Decide { v });
    t.on_decide v

(* [src] has accepted our ballot's value: a majority decides it. *)
let count_accept t src =
  if not (List.mem src t.accepts) then t.accepts <- src :: t.accepts;
  if List.length t.accepts >= majority t then
    match t.pushing with
    | Some v -> decide t ~src:t.io.self v
    | None -> assert false

(* Run the next ballot of this instance as the leader: straight to
   phase 2 when the held term covers it, else phase 1 at the term's
   ballot, else a new term opened here. A ballot is used at most once
   per instance, and a fresh one is logged as our own promise before it
   leaves, so no later incarnation can reuse it. *)
let rec start t v =
  let nd = t.node in
  t.ballots <- t.ballots + 1;
  t.promises <- [];
  t.listed <- [];
  t.accepts <- [];
  t.pushing <- None;
  match nd.term with
  | Held { b; from; excluded }
    when b > t.ballot && t.k >= from && not (List.mem t.k excluded) ->
    t.ballot <- b;
    push t v
  | (Held { b; _ } | Opening { b; _ }) when b > t.ballot ->
    t.ballot <- b;
    t.phase <- Phase1;
    t.io.multisend (Prepare { b })
  | _ ->
    let above = max (max nd.promise nd.high) (max t.acc.promised t.ballot) in
    let b = (((above / t.io.n) + 1) * t.io.n) + t.io.self in
    raise_promise nd b;
    nd.term <- Opening { b; k = t.k };
    t.ballot <- b;
    t.phase <- Phase1;
    t.io.multisend (Prepare { b })

(* Phase 2 of our ballot: accept [v] here first, so that an Accept
   leaves only after its sender accepted it (CORRECTNESS.md, "Paxos
   followers learn on accept"); if our own promise blocks the ballot,
   nothing leaves and the ballot ends as a peer's Reject would end it. *)
and push t v =
  let b = t.ballot in
  if accept t b v then begin
    t.phase <- Phase2;
    t.pushing <- Some v;
    t.accepts <- [];
    t.io.multisend (Accept { b; v });
    count_accept t t.io.self
  end
  else rejected t (max t.acc.promised t.node.promise)

(* A promise at [b] blocks our ballot. *)
and rejected t b =
  let nd = t.node in
  if b > t.ballot then begin
    nd.high <- max nd.high b;
    t.phase <- Idle;
    if term_ballot nd < b then nd.term <- No_term
    else
      (* our own newer term overtook this ballot: rejoin it now *)
      match t.proposal with
      | Some v when t.leader () = t.io.self -> start t v
      | _ -> ()
  end

let probe t = if t.decided = None then t.io.multisend Query

(* The retry tick of an undecided instance; [decide] cancels it, and a
   [start] that decided at once (n = 1 under a held term) leaves none. *)
let rec tick t =
  (match t.proposal with
  | Some v when t.leader () = t.io.self -> start t v
  | _ ->
    t.node.term <- No_term;
    probe t);
  if t.decided = None then next_tick t

and next_tick t =
  let jitter = Rng.int t.io.rng (retry_period / 2 + 1) in
  t.timer <- t.io.after (retry_period + jitter) (fun () -> tick t)

(* A leader holding a proposal starts its ballot at once; the timer only
   paces its retries. Anyone else first waits a retry period (jittered,
   which desynchronizes competing proposers): in a failure-free run the
   leader's Decide arrives before, and a probe crossing it would draw a
   second copy from every decided peer. A caller with evidence that the
   instance is decided elsewhere probes at once ({!probe}). *)
let ensure_ticking t =
  if (not (Engine.Timer.pending t.timer)) && t.decided = None then
    if t.proposal <> None && t.leader () = t.io.self then tick t
    else next_tick t

let create io ~node ~instance ~leader ~on_decide =
  let acc_slot =
    Storage.Slot.make ~codec:acc_codec io.Engine.store ~layer:Keys.layer
      ~key:(acc_key instance)
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
      node;
      leader;
      on_decide;
      acc_slot;
      acc;
      proposal = Storage.read io.store (Keys.proposal instance);
      decided = Storage.read io.store (Keys.decision instance);
      ballot = 0;
      ballots = 0;
      phase = Idle;
      promises = [];
      listed = [];
      accepts = [];
      pushing = None;
      timer = Engine.Timer.none;
      proposed_at = -1;
      learned_from = -1;
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

let best_accepted promises =
  List.fold_left
    (fun best (_, acc) ->
      match (best, acc) with
      | None, x -> x
      | Some _, None -> best
      | Some (bb, _), Some (ab, _) when ab <= bb -> best
      | Some _, Some x -> Some x)
    None promises

(* Every instance above ours this acceptor has accepted a value in. *)
let accepted_above t =
  let rec go j acc =
    if j <= t.k then acc
    else
      go (j - 1)
        (match accepted t.io.store ~instance:j with
        | Some (ab, _) -> (j, ab) :: acc
        | None -> acc)
  in
  go t.node.top []

let handle t ~src msg =
  match t.decided with
  | Some v -> (
    match msg with
    | Decide _ -> ()
    | Query -> t.io.send src (Decide { v })
    | (Promise _ | Accepted _) when t.learned_from = t.io.self ->
      (* a late answer to our ballot: at n <= 3 our Accept went to it
         too and accepting it decides, above that our Decide did *)
      ()
    | _ when src = t.learned_from -> () (* src told us *)
    | _ -> t.io.send src (Decide { v }))
  | None -> (
    let nd = t.node in
    match msg with
    | Prepare { b } ->
      if b > t.acc.promised && b >= nd.promise then begin
        raise_promise nd b;
        set_acc t { t.acc with promised = b };
        t.io.send src
          (Promise { b; accepted = t.acc.accepted; above = accepted_above t })
      end
      else t.io.send src (Reject { b = max t.acc.promised nd.promise })
    | Promise { b; accepted; above } ->
      if t.phase = Phase1 && b = t.ballot then begin
        if not (List.mem_assoc src t.promises) then begin
          t.promises <- (src, accepted) :: t.promises;
          List.iter
            (fun (j, _) ->
              if not (List.mem j t.listed) then t.listed <- j :: t.listed)
            above
        end;
        if List.length t.promises >= majority t then begin
          (match nd.term with
          | Opening { b = tb; k } when tb = b && k = t.k ->
            nd.term <- Held { b; from = t.k + 1; excluded = t.listed }
          | _ -> ());
          push t
            (match best_accepted t.promises with
            | Some (_, v) -> v
            | None -> (
              match t.proposal with
              | Some v -> v
              | None -> assert false (* phase 1 only runs after propose *)))
        end
      end
    | Reject { b } -> rejected t b
    | Accept _ when src = t.io.self -> () (* [push] accepted it before it left *)
    | Accept { b; v } ->
      (* a recovered leader learns the current term here, and opens its
         own above it instead of being rejected once *)
      nd.high <- max nd.high b;
      if accept t b v then begin
        t.io.send src (Accepted { b });
        if learns_on_accept t then decide t ~src:(-1) v
      end
      else t.io.send src (Reject { b = max t.acc.promised nd.promise })
    | Accepted { b } ->
      if t.phase = Phase2 && b = t.ballot then count_accept t src
    | Query -> () (* nothing to offer: not decided *)
    | Decide { v } -> decide t ~src v)
