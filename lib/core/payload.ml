type id = { origin : int; boot : int; seq : int }

(* Plain int branches instead of [compare]: this is the comparator the
   batch sort runs ~n log n times per consensus proposal, and the
   specialised [caml_int_compare] calls dominate it otherwise. *)
let[@inline] compare_id a b =
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

(* The protocol's own batches are built from the identity-ordered
   Unordered map, so they arrive here already sorted and duplicate-free:
   detect that in one O(n) pass and skip the sort + rebuild. *)
let rec sorted_distinct = function
  | a :: (b :: _ as rest) -> compare_id a.id b.id < 0 && sorted_distinct rest
  | _ -> true

(* Stable merge sort specialised to payload arrays: insertion-sorted
   chunks, then bottom-up merge passes. The stdlib sorts pay an indirect
   call per comparison (and [List.sort] additionally allocates ~n log n
   cons cells); here the id comparison inlines to straight int branches,
   and the chunk pass replaces the three narrowest (most call-heavy)
   merge widths. Insertion uses strict [>] and merges take the left run
   on ties, so equal ids keep their input order. Returns whichever array
   holds the final pass. *)
let chunk = 8

let merge_passes arr n =
  let src = ref arr and dst = ref (Array.make n (Array.unsafe_get arr 0)) in
  let width = ref chunk in
  while !width < n do
    let s = !src and d = !dst in
    let i = ref 0 in
    while !i < n do
      let lo = !i in
      let mid = lo + !width in
      let mid = if mid > n then n else mid in
      let hi = mid + !width in
      let hi = if hi > n then n else hi in
      let a = ref lo and b = ref mid and k = ref lo in
      while !a < mid && !b < hi do
        let pa = Array.unsafe_get s !a and pb = Array.unsafe_get s !b in
        if compare_id pa.id pb.id <= 0 then begin
          Array.unsafe_set d !k pa;
          incr a
        end
        else begin
          Array.unsafe_set d !k pb;
          incr b
        end;
        incr k
      done;
      while !a < mid do
        Array.unsafe_set d !k (Array.unsafe_get s !a);
        incr a;
        incr k
      done;
      while !b < hi do
        Array.unsafe_set d !k (Array.unsafe_get s !b);
        incr b;
        incr k
      done;
      i := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  !src

let sort_arr arr =
  let n = Array.length arr in
  let i = ref 0 in
  while !i < n do
    let lo = !i in
    let hi = lo + chunk in
    let hi = if hi > n then n else hi in
    for j = lo + 1 to hi - 1 do
      let p = Array.unsafe_get arr j in
      let k = ref j in
      while
        !k > lo && compare_id (Array.unsafe_get arr (!k - 1)).id p.id > 0
      do
        Array.unsafe_set arr !k (Array.unsafe_get arr (!k - 1));
        decr k
      done;
      Array.unsafe_set arr !k p
    done;
    i := hi
  done;
  if n <= chunk then arr
  else merge_passes arr n

(* Sorted, duplicate-free array view of a non-empty batch: sort, then
   compact runs of equal ids in place keeping the first of each run (the
   sort is stable, so that is the first duplicate of the input). Only
   the first [m] slots of the returned array are meaningful. *)
let sorted_array batch =
  let arr = sort_arr (Array.of_list batch) in
  let n = Array.length arr in
  let m = ref 1 in
  for i = 1 to n - 1 do
    let p = Array.unsafe_get arr i in
    if compare_id p.id (Array.unsafe_get arr (!m - 1)).id <> 0 then begin
      Array.unsafe_set arr !m p;
      incr m
    end
  done;
  (arr, !m)

let sort_batch batch =
  if sorted_distinct batch then batch
  else begin
    (* [sorted_distinct] returned false, so the batch is non-empty. *)
    let arr, m = sorted_array batch in
    let rec build i acc =
      if i < 0 then acc else build (i - 1) (Array.unsafe_get arr i :: acc)
    in
    build (m - 1) []
  end

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
let write_general w t =
  write_id w t.id;
  let len = String.length t.data in
  let traced = if t.trace = 0 then 0 else 1 in
  Wire.write_uvarint w ((len lsl 1) lor traced);
  let b = Wire.unsafe_reserve w len in
  Bytes.blit_string t.data 0 b (Wire.length w) len;
  Wire.unsafe_advance w len;
  if traced = 1 then Trace_ctx.write w t.trace

(* Fused fast path for the overwhelmingly common shape — an unsampled
   payload whose three id zigzags and shifted data length fit in one
   varint byte each (ids are small non-negative ints, payloads under 64
   bytes): one capacity reservation, four raw byte stores, one blit.
   Byte-identical to [write_general]; anything larger, or any sampled
   payload, falls back to it. *)
let write w t =
  let { origin; boot; seq } = t.id in
  let z1 = (origin lsl 1) lxor (origin asr (Sys.int_size - 1)) in
  let z2 = (boot lsl 1) lxor (boot asr (Sys.int_size - 1)) in
  let z3 = (seq lsl 1) lxor (seq asr (Sys.int_size - 1)) in
  let len = String.length t.data in
  if ((z1 lor z2 lor z3 lor (len lsl 1)) land lnot 0x7f) lor t.trace = 0
  then begin
    let b = Wire.unsafe_reserve w (4 + len) in
    let i = Wire.length w in
    Bytes.unsafe_set b i (Char.unsafe_chr z1);
    Bytes.unsafe_set b (i + 1) (Char.unsafe_chr z2);
    Bytes.unsafe_set b (i + 2) (Char.unsafe_chr z3);
    Bytes.unsafe_set b (i + 3) (Char.unsafe_chr (len lsl 1));
    Bytes.unsafe_blit_string t.data 0 b (i + 4) len;
    Wire.unsafe_advance w (4 + len)
  end
  else write_general w t

let read_general r =
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

(* Mirror of [write]'s fast path: four single varint bytes (the fourth
   with a clear trace flag) then the data. The guards keep it total — if
   any of the four bytes has the continuation bit, the payload is
   sampled, or the data would run past the window, the general
   (bounds-checked, multi-byte-aware) decoder takes over. *)
let read r =
  let rem = Wire.remaining r in
  if rem >= 4 then begin
    let s = Wire.unsafe_buf r in
    let p = Wire.unsafe_pos r in
    let z1 = Char.code (String.unsafe_get s p) in
    let z2 = Char.code (String.unsafe_get s (p + 1)) in
    let z3 = Char.code (String.unsafe_get s (p + 2)) in
    let len2 = Char.code (String.unsafe_get s (p + 3)) in
    let len = len2 lsr 1 in
    if
      (z1 lor z2 lor z3 lor len2) < 0x80
      && len2 land 1 = 0
      && len <= rem - 4
    then begin
      let data = String.sub s (p + 4) len in
      Wire.unsafe_seek r (p + 4 + len);
      {
        id =
          {
            origin = (z1 lsr 1) lxor (-(z1 land 1));
            boot = (z2 lsr 1) lxor (-(z2 land 1));
            seq = (z3 lsr 1) lxor (-(z3 land 1));
          };
        data;
        trace = Trace_ctx.none;
      }
    end
    else read_general r
  end
  else read_general r

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
