type id = { origin : int; boot : int; seq : int }

(* Identity order, the paper's deterministic rule for placing the
   messages of one batch: origin, then boot, then seq. *)
let compare_id a b =
  if a.origin <> b.origin then if a.origin < b.origin then -1 else 1
  else if a.boot <> b.boot then if a.boot < b.boot then -1 else 1
  else if a.seq < b.seq then -1
  else if a.seq > b.seq then 1
  else 0

let equal_id a b = compare_id a b = 0

(* Id-keyed hash tables: every per-message table (Unordered, pending,
   logged keys, proposal coverage) keys on an identity, and the generic
   [Hashtbl] pays a [caml_hash] structure walk plus a polymorphic
   comparison per probe. Three-int mixing and int-only equality keep the
   probe entirely in straight-line code. *)
module Id_tbl = Hashtbl.Make (struct
  type t = id

  let equal a b = a.origin = b.origin && a.boot = b.boot && a.seq = b.seq

  let hash { origin; boot; seq } = ((((seq * 31) + boot) * 31) + origin) land max_int
end)

let pp_id ppf { origin; boot; seq } =
  Format.fprintf ppf "p%d.%d.%d" origin boot seq

type t = { id : id; data : string; trace : Trace_ctx.t }

let make ?(trace = Trace_ctx.none) id data = { id; data; trace }

let compare a b = compare_id a.id b.id

(* Stable, so of equal ids the one met first in the input stays. *)
let sort_batch batch =
  let[@tail_mod_cons] rec dedup = function
    | a :: b :: rest when equal_id a.id b.id -> dedup (a :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup (List.stable_sort compare batch)

module Wire = Abcast_util.Wire

let[@inline] write_id w { origin; boot; seq } =
  Wire.write_varint w origin;
  Wire.write_varint w boot;
  Wire.write_varint w seq

let[@inline] read_id r =
  let origin = Wire.read_varint r in
  let boot = Wire.read_varint r in
  let seq = Wire.read_varint r in
  { origin; boot; seq }

(* Wire layout (v2): three zigzag id varints, then [len2] — the data
   length shifted left one with the trace-presence flag in the low bit —
   then the raw data bytes, then (iff flagged) the (node, stamp) trace
   uvarint pair. The flag rides a bit that was free in the length
   varint, so unsampled payloads (the overwhelming majority) cost zero
   extra bytes over v1 for data under 64 bytes. *)
let write w t =
  write_id w t.id;
  let len = String.length t.data in
  let traced = if t.trace = 0 then 0 else 1 in
  Wire.write_uvarint w ((len lsl 1) lor traced);
  let b = Wire.unsafe_reserve w len in
  Bytes.blit_string t.data 0 b (Wire.length w) len;
  Wire.unsafe_advance w len;
  if traced = 1 then Trace_ctx.write w t.trace

let read r =
  let id = read_id r in
  let len2 = Wire.read_uvarint r in
  let len = len2 lsr 1 in
  if len > Wire.remaining r then
    Wire.error "payload data length %d exceeds remaining %d bytes" len
      (Wire.remaining r);
  let p = Wire.unsafe_pos r in
  let data = String.sub (Wire.unsafe_buf r) p len in
  Wire.unsafe_seek r (p + len);
  let trace = if len2 land 1 = 1 then Trace_ctx.read r else Trace_ctx.none in
  { id; data; trace }

(* [Wire.read_list read] pays an indirect call per element; batches and
   gossip bodies decode often enough that the direct-call loop is worth
   having. Same hostile-count guard as [Wire.read_list]. *)
let read_list r =
  let n = Wire.read_uvarint r in
  if n > Wire.remaining r then
    Wire.error "payload count %d exceeds remaining %d bytes" n
      (Wire.remaining r);
  let[@tail_mod_cons] rec go i =
    if i = 0 then []
    else
      let x = read r in
      x :: go (i - 1)
  in
  go n
