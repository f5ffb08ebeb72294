module Engine = Abcast_sim.Engine
module Flight = Abcast_sim.Flight
module Metrics = Abcast_sim.Metrics
module Wire = Abcast_util.Wire

type msg =
  | Gossip of {
      k : int;
      len : int;
      unordered : Payload.t list;
      cert : Audit.cert option;
    }
  | Digest of {
      k : int;
      len : int;
      summary : (int * int * int) list;
      cert : Audit.cert option;
    }
  | Need of { ids : Payload.id list }
  | Ring of { k : int; len : int; entries : (int * Payload.t) list }

(* --- Wire codec ------------------------------------------------------ *)

let write_msg w = function
  | Gossip { k; len; unordered; cert } ->
    Wire.write_u8 w 0;
    Wire.write_varint w k;
    Wire.write_varint w len;
    Wire.write_list Payload.write w unordered;
    Wire.write_option Audit.write_cert w cert
  | Digest { k; len; summary; cert } ->
    Wire.write_u8 w 1;
    Wire.write_varint w k;
    Wire.write_varint w len;
    Wire.write_list
      (fun w (origin, boot, smax) ->
        Wire.write_varint w origin;
        Wire.write_varint w boot;
        Wire.write_varint w smax)
      w summary;
    Wire.write_option Audit.write_cert w cert
  | Need { ids } ->
    Wire.write_u8 w 2;
    Wire.write_list Payload.write_id w ids
  | Ring { k; len; entries } ->
    Wire.write_u8 w 6;
    Wire.write_varint w k;
    Wire.write_varint w len;
    Wire.write_list
      (fun w (hops, p) ->
        Wire.write_uvarint w hops;
        Payload.write w p)
      w entries

let read_tagged tag r =
  match tag with
  | 0 ->
    let k = Wire.read_varint r in
    let len = Wire.read_varint r in
    let unordered = Payload.read_list r in
    Gossip { k; len; unordered; cert = Wire.read_option Audit.read_cert r }
  | 1 ->
    let k = Wire.read_varint r in
    let len = Wire.read_varint r in
    let summary =
      Wire.read_list
        (fun r ->
          let origin = Wire.read_varint r in
          let boot = Wire.read_varint r in
          (origin, boot, Wire.read_varint r))
        r
    in
    Digest { k; len; summary; cert = Wire.read_option Audit.read_cert r }
  | 2 -> Need { ids = Wire.read_list Payload.read_id r }
  | 6 ->
    let k = Wire.read_varint r in
    let len = Wire.read_varint r in
    let entry r =
      let hops = Wire.read_uvarint r in
      (hops, Payload.read r)
    in
    Ring { k; len; entries = Wire.read_list entry r }
  | t -> Wire.error "protocol: bad message tag %d" t

(* How many missing ids one digest exchange pulls — the repair path's
   flow control. An uncapped pull turns the first digest of a large
   burst into a storm: every receiver asks every peer for the whole
   backlog that the primary dissemination path (ring or full gossip) is
   already carrying, and each peer answers with a duplicate copy.
   Anything past the cap is pulled on a later tick, so repair throughput
   stays bounded but positive. *)
let need_cap = 128

(* Coalescing delay before forwarding ring entries to the successor. *)
let ring_flush_us = 400

type t = {
  io : msg Engine.io;
  period : int;
  full_every : int;
  ring : bool;
  audit : bool;
  unordered : Unordered.t;
  agreed : unit -> Agreed.t;
  cursor : unit -> int;
  on_progress : src:int -> k:int -> len:int -> unit;
  size : msg -> int; (* this layer's own one-slot size memo *)
  mutable tick : int;
  mutable ring_pending : (int * Payload.t) list;
      (* entries awaiting the next coalesced forward to our successor,
         in reverse arrival order *)
  mutable ring_timer : Engine.Timer.t;
      (* the next coalesced forward; cancelled once every entry it
         would carry is delivered *)
  mutable ring_due : int; (* when [ring_timer] is (or was) due *)
  mutable audit_tripped : bool; (* order-divergence sentinel, one-shot *)
  h_rx_gossip : Metrics.handle;
  h_rx_digest : Metrics.handle;
  h_rx_need : Metrics.handle;
  h_rx_ring : Metrics.handle;
  h_msgs : Metrics.handle;
  h_bytes : Metrics.handle;
}

let create ~period ~full_every ~dissemination ~audit io unordered ~agreed
    ~cursor ~on_progress =
  let h name = Metrics.handle io.Engine.metrics ~node:io.Engine.self name in
  {
    io;
    period;
    full_every;
    ring = dissemination = `Ring;
    audit;
    unordered;
    agreed;
    cursor;
    on_progress;
    size = Wire.sizer write_msg;
    tick = 0;
    ring_pending = [];
    ring_timer = Engine.Timer.none;
    ring_due = 0;
    audit_tripped = false;
    h_rx_gossip = h "rx.gossip";
    h_rx_digest = h "rx.digest";
    h_rx_need = h "rx.need";
    h_rx_ring = h "rx.ring";
    h_msgs = h "gossip_msgs_sent";
    h_bytes = h "gossip_bytes_sent";
  }

let flight t ~stage ~trace ~a ~b =
  Flight.record t.io.flight ~time:(t.io.now ()) ~node:t.io.self
    ~group:t.io.group ~boot:t.io.incarnation ~stage ~trace ~a ~b

(* Byte accounting of the gossip layer proper — kept whether or not the
   engine counts wire bytes, so experiments can compare dissemination
   strategies directly. *)
let count t ~copies m =
  Metrics.hadd t.h_msgs copies;
  Metrics.hadd t.h_bytes (copies * t.size m)

let send t dst m =
  count t ~copies:1 m;
  t.io.send dst m

(* --- Ring dissemination ---------------------------------------------- *)

(* Payloads travel around the ring once: the origin enqueues n-1 hops,
   every receiver forwards with one hop less. Entries are coalesced for
   [ring_flush_us] before the (single) send to our successor, and split
   into messages that respect the bytes budget. Crashed successors tear
   the ring — the digest/pull gossip keeps running underneath as the
   repair path, so liveness never depends on an intact ring. *)
let ring_entry_cost (p : Payload.t) = String.length p.data + 16

let ring_flush t =
  (* a payload decided while it waited gains nothing from the hop *)
  let agreed = t.agreed () in
  let entries =
    List.fold_left
      (fun acc ((_, (p : Payload.t)) as e) ->
        if Agreed.contains agreed p.id then acc else e :: acc)
      [] t.ring_pending
  in
  t.ring_pending <- [];
  if entries <> [] then begin
    let succ = (t.io.self + 1) mod t.io.n in
    let k = t.cursor () and len = Agreed.total_len agreed in
    let flush chunk = send t succ (Ring { k; len; entries = List.rev chunk }) in
    let rec chunked cost acc = function
      | [] -> if acc <> [] then flush acc
      | ((_, p) as e) :: rest ->
        let c = ring_entry_cost p in
        if acc <> [] && cost + c > Batch.max_bytes then begin
          flush acc;
          chunked c [ e ] rest
        end
        else chunked (cost + c) (e :: acc) rest
    in
    chunked 0 [] entries
  end

let enqueue t hops (p : Payload.t) =
  if t.ring && hops > 0 && t.io.n > 1 then begin
    t.ring_pending <- (hops, p) :: t.ring_pending;
    if not (Engine.Timer.pending t.ring_timer) then begin
      (* A flush cancelled before its due time keeps its slot: what is
         queued meanwhile leaves when it would have left. *)
      let now = t.io.now () in
      if t.ring_due <= now then t.ring_due <- now + ring_flush_us;
      t.ring_timer <- t.io.after (t.ring_due - now) (fun () -> ring_flush t)
    end
  end

let forward t p = enqueue t (t.io.n - 1) p

(* A flush whose every entry is delivered has nothing left to carry:
   cancel it. *)
let settle t =
  if
    Engine.Timer.pending t.ring_timer
    && List.for_all
         (fun (_, (p : Payload.t)) -> Agreed.contains (t.agreed ()) p.id)
         t.ring_pending
  then begin
    Engine.Timer.cancel t.ring_timer;
    t.ring_pending <- []
  end

(* --- Gossip task (§4.2; digest/pull optimization) -------------------- *)

let rec gossip t =
  t.tick <- t.tick + 1;
  let agreed = t.agreed () in
  let k = t.cursor () and len = Agreed.total_len agreed in
  (* The order certificate rides every tick when the audit is on: one
     small option allocation per periodic tick — never on the
     per-payload path — and ~1 byte on the wire when absent. *)
  let cert =
    if t.audit then
      let c_hash = Agreed.chain agreed in
      Some { Audit.c_boot = t.io.incarnation; c_len = len; c_hash }
    else None
  in
  let m =
    if t.tick mod t.full_every = 0 then
      Gossip { k; len; unordered = Unordered.to_list t.unordered; cert }
    else Digest { k; len; summary = Unordered.summary t.unordered; cert }
  in
  count t ~copies:t.io.n m;
  t.io.multisend m;
  ignore (t.io.after t.period (fun () -> gossip t))

let start = gossip

(* The sentinel: compare a peer's order certificate against our own
   chain at the same delivery position. Positions outside our window
   (too far ahead, or already slid past) prove nothing and are skipped;
   an overlap with a different hash is a total-order violation — the
   one thing the paper's protocol must never allow — so it trips the
   alarm (live: immediate flight dump) exactly once per boot. *)
let audit_check t ~src = function
  | None -> ()
  | Some (c : Audit.cert) -> (
    if t.audit then
      match Agreed.chain_at (t.agreed ()) c.c_len with
      | None -> ()
      | Some h ->
        if h <> c.c_hash then begin
          Metrics.incr t.io.metrics ~node:t.io.self "audit_diverged";
          if not t.audit_tripped then begin
            t.audit_tripped <- true;
            flight t ~stage:Flight.audit ~trace:0 ~a:c.c_len ~b:src;
            t.io.alarm
              (Printf.sprintf
                 "audit: delivery order diverged from node %d (boot %d) at \
                  len %d in group %d: local chain %x, remote %x"
                 src c.c_boot c.c_len t.io.group h c.c_hash)
          end
        end)

(* Admit one disseminated payload to Unordered. [stage] names the path
   it came by in the flight recorder; [hops] is what is left of its
   ring journey (0 for gossip, which forwards nothing). *)
let admit t ~src ~stage ~hops (p : Payload.t) =
  let agreed = t.agreed () in
  if not (Agreed.contains agreed p.id) then begin
    if p.trace <> 0 && not (Unordered.mem t.unordered p.id) then
      flight t ~stage ~trace:p.trace ~a:src ~b:0;
    Unordered.add t.unordered ~vc:(Agreed.vc agreed) p;
    enqueue t hops p
  end

(* Every Gossip, Digest and Ring carries the sender's decided count and
   Agreed length: [on_progress] hears them once the frame's own work is
   done. A digest names, per stream, the highest seq the sender has held
   unordered. Everything below it that we neither delivered nor hold is
   a candidate gap: pull exactly those, at most [need_cap] per digest.
   The sender replies with the subset it actually has, as a regular
   payload gossip. *)
let handle t ~src = function
  | Gossip { k; len; unordered; cert } ->
    Metrics.hincr t.h_rx_gossip;
    audit_check t ~src cert;
    List.iter (admit t ~src ~stage:Flight.rx_gossip ~hops:0) unordered;
    t.on_progress ~src ~k ~len
  | Digest { k; len; summary; cert } ->
    Metrics.hincr t.h_rx_digest;
    audit_check t ~src cert;
    let vc = Agreed.vc (t.agreed ()) in
    let missing = Unordered.missing t.unordered ~vc ~cap:need_cap summary in
    if missing <> [] then send t src (Need { ids = missing });
    t.on_progress ~src ~k ~len
  | Need { ids } ->
    Metrics.hincr t.h_rx_need;
    let ps = List.filter_map (Unordered.find_opt t.unordered) ids in
    if ps <> [] then
      send t src
        (Gossip
           {
             k = t.cursor ();
             len = Agreed.total_len (t.agreed ());
             unordered = List.sort Payload.compare ps;
             cert = None;
           })
  | Ring { k; len; entries } ->
    Metrics.hincr t.h_rx_ring;
    List.iter
      (fun (hops, p) -> admit t ~src ~stage:Flight.rx_ring ~hops:(hops - 1) p)
      entries;
    t.on_progress ~src ~k ~len
