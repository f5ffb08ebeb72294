(* How many trailing chain positions each queue remembers for audit
   certificate comparison (see [Audit.window]); gossip round-trips lag
   the frontier by far less than this. *)
let chain_window_cap = 1024

type t = {
  mutable base_app : string option;
  mutable base_len : int;
  mutable vc : Vclock.t;
  mutable tail_rev : Payload.t list;
  mutable tail_len : int;
  mutable chain_ : int;  (* Audit chain after [total_len] deliveries *)
  mutable base_chain : int;  (* Audit chain after [base_len] deliveries *)
  window : Audit.window;
}

type repr = {
  base_app : string option;
  base_len : int;
  base_chain : int;
  vc : Vclock.t;
  tail : Payload.t list;
}

let create () =
  {
    base_app = None;
    base_len = 0;
    vc = Vclock.empty;
    tail_rev = [];
    tail_len = 0;
    chain_ = Audit.empty;
    base_chain = Audit.empty;
    window = Audit.window ~cap:chain_window_cap ();
  }

let contains (t : t) id = Vclock.contains t.vc id

let[@inline] chain_in (t : t) (p : Payload.t) =
  t.chain_ <- Audit.mix t.chain_ p.id;
  Audit.note t.window ~pos:(t.base_len + t.tail_len) ~hash:t.chain_

let append (t : t) (p : Payload.t) =
  if contains t p.id then false
  else begin
    t.vc <- Vclock.add t.vc p.id;
    t.tail_rev <- p :: t.tail_rev;
    t.tail_len <- t.tail_len + 1;
    chain_in t p;
    true
  end

let try_append (t : t) (p : Payload.t) =
  if contains t p.id then `Dup
  else if not (Vclock.fits t.vc p.id) then `Gap
  else begin
    t.vc <- Vclock.add t.vc p.id;
    t.tail_rev <- p :: t.tail_rev;
    t.tail_len <- t.tail_len + 1;
    chain_in t p;
    `Appended
  end

let total_len (t : t) = t.base_len + t.tail_len

let chain (t : t) = t.chain_

let chain_at (t : t) pos =
  if pos = total_len t then Some t.chain_
  else if pos = t.base_len then Some t.base_chain
  else Audit.hash_at t.window ~pos

let tail (t : t) = List.rev t.tail_rev

let vc (t : t) = t.vc

let compact (t : t) ~app_blob =
  t.base_app <- Some app_blob;
  t.base_len <- total_len t;
  t.base_chain <- t.chain_;
  t.tail_rev <- [];
  t.tail_len <- 0

let snapshot (t : t) =
  {
    base_app = t.base_app;
    base_len = t.base_len;
    base_chain = t.base_chain;
    vc = t.vc;
    tail = tail t;
  }

(* Last [n] elements of the tail, in delivery order: the first [n]
   elements of [tail_rev] consed back over — one pass, no full [tail]
   materialization followed by an indexed filter. *)
let take_rev n l =
  let rec go n l acc =
    if n <= 0 then acc
    else match l with [] -> acc | x :: rest -> go (n - 1) rest (x :: acc)
  in
  go n l []

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: rest -> drop (n - 1) rest

let suffix_snapshot (t : t) ~from_len =
  if from_len < t.base_len || from_len > total_len t then None
  else
    Some
      {
        base_app = None;
        base_len = from_len;
        (* a receiver on the [`Deliver] path keeps its own chain, so a
           stale window miss (0) here is harmless — only the [`Install]
           path consumes [base_chain], and that path is gated on a full
           (untrimmed) snapshot by the protocol's [on_state] guard *)
        base_chain = (match chain_at t from_len with Some h -> h | None -> 0);
        vc = t.vc;
        tail = take_rev (total_len t - from_len) t.tail_rev;
      }

(* [set_to]/[restore]/[adopt] all need the length of [r.tail]; compute it
   once and thread it through instead of re-walking the list. *)
let set_to_len (t : t) (r : repr) len =
  t.base_app <- r.base_app;
  t.base_len <- r.base_len;
  t.vc <- r.vc;
  t.tail_rev <- List.rev r.tail;
  t.tail_len <- len;
  t.base_chain <- r.base_chain;
  (* rebuild the chain and window from the adopted prefix: fold the tail
     over the donor's base chain, re-noting each position *)
  Audit.reset t.window;
  t.chain_ <- r.base_chain;
  let pos = ref r.base_len in
  List.iter
    (fun (p : Payload.t) ->
      incr pos;
      t.chain_ <- Audit.mix t.chain_ p.id;
      Audit.note t.window ~pos:!pos ~hash:t.chain_)
    r.tail

let restore (r : repr) =
  let t = create () in
  set_to_len t r (List.length r.tail);
  t

let adopt (t : t) (r : repr) =
  let donor_tail_len = List.length r.tail in
  let donor_total = r.base_len + donor_tail_len in
  let mine = total_len t in
  if donor_total <= mine then `Deliver []
  else if mine >= r.base_len then begin
    (* Our sequence covers the donor's base: the missing messages are a
       suffix of the donor's tail (total order makes ours a prefix).
       Append them to OUR state rather than adopting the donor's repr —
       a trimmed repr (suffix snapshot, [base_app = None]) does not carry
       the prefix, and wholesale replacement would silently drop our
       already-delivered prefix from [tail]. *)
    let missing = drop (mine - r.base_len) r.tail in
    List.iter (fun p -> ignore (append t p)) missing;
    `Deliver missing
  end
  else begin
    set_to_len t r donor_tail_len;
    `Install (r.base_app, r.tail)
  end

module Wire = Abcast_util.Wire

let write_repr w (r : repr) =
  Wire.write_option Wire.write_string w r.base_app;
  Wire.write_varint w r.base_len;
  Wire.write_varint w r.base_chain;
  Vclock.write w r.vc;
  Wire.write_list Payload.write w r.tail

let read_repr rd =
  let base_app = Wire.read_option Wire.read_string rd in
  let base_len = Wire.read_varint rd in
  let base_chain = Wire.read_varint rd in
  let vc = Vclock.read rd in
  let tail = Wire.read_list Payload.read rd in
  { base_app; base_len; base_chain; vc; tail }
