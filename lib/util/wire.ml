exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* --- Writing ------------------------------------------------------- *)

(* Not a [Buffer.t]: a bare bytes + cursor pair lets the varint writer
   reserve its worst case once and then store bytes with no per-byte
   bounds checks, which matters on the batch-encode hot path. *)
type writer = { mutable bytes : Bytes.t; mutable pos : int }

let writer ?(cap = 128) () =
  { bytes = Bytes.create (if cap < 16 then 16 else cap); pos = 0 }

let grow w need =
  let cap = ref (2 * Bytes.length w.bytes) in
  while w.pos + need > !cap do
    cap := 2 * !cap
  done;
  let bytes = Bytes.create !cap in
  Bytes.blit w.bytes 0 bytes 0 w.pos;
  w.bytes <- bytes

let[@inline] reserve w need =
  if w.pos + need > Bytes.length w.bytes then grow w need

let clear w = w.pos <- 0
let length w = w.pos
let contents w = Bytes.sub_string w.bytes 0 w.pos
let unsafe_bytes w = w.bytes

let truncate w pos =
  if pos < 0 || pos > w.pos then invalid_arg "Wire.truncate: bad position";
  w.pos <- pos

let append_writer dst ~src =
  reserve dst src.pos;
  Bytes.blit src.bytes 0 dst.bytes dst.pos src.pos;
  dst.pos <- dst.pos + src.pos

let[@inline] unsafe_reserve w n =
  reserve w n;
  w.bytes

let[@inline] unsafe_advance w n = w.pos <- w.pos + n

let[@inline] write_u8 w n =
  reserve w 1;
  Bytes.unsafe_set w.bytes w.pos (Char.unsafe_chr (n land 0xff));
  w.pos <- w.pos + 1

(* LEB128 over the int's 63-bit two's-complement pattern. [lsr] makes the
   loop terminate for negative inputs too (at most 9 bytes, reserved up
   front so the loop body is check-free). *)
let write_raw_varint w n =
  reserve w 9;
  let bytes = w.bytes in
  let pos = ref w.pos in
  let n = ref n in
  while !n land lnot 0x7f <> 0 do
    Bytes.unsafe_set bytes !pos (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    incr pos;
    n := !n lsr 7
  done;
  Bytes.unsafe_set bytes !pos (Char.unsafe_chr !n);
  w.pos <- !pos + 1

(* Zigzag folds the sign into the low bit so small magnitudes of either
   sign stay short; the [lsl] overflow on huge ints is part of the
   bijection (the top bit is recovered by the decoder's [lsr 1]).
   Single-byte zigzags (|n| <= 63) skip the write loop entirely. *)
let[@inline] write_varint w n =
  let z = (n lsl 1) lxor (n asr (Sys.int_size - 1)) in
  if z land lnot 0x7f = 0 then write_u8 w z else write_raw_varint w z

let[@inline] write_uvarint_fast w n =
  if n land lnot 0x7f = 0 then write_u8 w n else write_raw_varint w n

let write_uvarint w n =
  if n < 0 then invalid_arg "Wire.write_uvarint: negative";
  write_uvarint_fast w n

let write_string w s =
  let len = String.length s in
  write_uvarint_fast w len;
  reserve w len;
  (* bounds established by [reserve]; [len] is the source's length *)
  Bytes.unsafe_blit_string s 0 w.bytes w.pos len;
  w.pos <- w.pos + len

let write_option f w = function
  | None -> write_u8 w 0
  | Some x ->
    write_u8 w 1;
    f w x

(* Fully-applied top-level recursion instead of [List.iter (f w)]: the
   partial application would allocate a closure on every call, and this
   runs on the live runtime's zero-allocation send path. *)
let rec iter_write f w = function
  | [] -> ()
  | x :: tl ->
    f w x;
    iter_write f w tl

let write_list f w l =
  write_uvarint w (List.length l);
  iter_write f w l

(* --- Reading ------------------------------------------------------- *)

type reader = { mutable buf : string; mutable pos : int; mutable limit : int }

let[@inline] check_window buf pos limit =
  if pos < 0 || limit > String.length buf || pos > limit then
    invalid_arg "Wire.reader: window outside the string"

let reader ?(pos = 0) ?len buf =
  let limit =
    match len with Some l -> pos + l | None -> String.length buf
  in
  check_window buf pos limit;
  { buf; pos; limit }

(* Re-aim a pooled reader at a new window without allocating. The live
   runtime's recv loop keeps one reader per socket and resets it over
   [Bytes.unsafe_to_string] of the (reused) datagram buffer — decoding a
   frame then touches the minor heap only for the decoded value itself. *)
let reader_reset r ?(pos = 0) ?len buf =
  let limit =
    match len with Some l -> pos + l | None -> String.length buf
  in
  check_window buf pos limit;
  r.buf <- buf;
  r.pos <- pos;
  r.limit <- limit

let remaining r = r.limit - r.pos

let at_end r = r.pos >= r.limit

let[@inline] unsafe_buf r = r.buf
let[@inline] unsafe_pos r = r.pos
let[@inline] unsafe_seek r pos = r.pos <- pos

let expect_end r =
  if not (at_end r) then error "trailing garbage (%d bytes)" (remaining r)

let read_u8 r =
  if r.pos >= r.limit then error "truncated input";
  let c = Char.code (String.unsafe_get r.buf r.pos) in
  r.pos <- r.pos + 1;
  c

(* Continuation bytes past the first, moved out of line so the one-byte
   fast path below stays small enough for the inliner. *)
let read_raw_varint_slow r first =
  let rec go shift acc =
    (* 63-bit ints fit in 9 LEB128 groups (shifts 0..56). *)
    if shift > Sys.int_size - 7 then error "varint too long";
    let b = read_u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 7 (first land 0x7f)

let[@inline] read_raw_varint r =
  (* Single-byte values dominate (tags, counts, small seqs): one bounds
     check, one load, done. *)
  let pos = r.pos in
  if pos >= r.limit then error "truncated input";
  let b = Char.code (String.unsafe_get r.buf pos) in
  r.pos <- pos + 1;
  if b < 0x80 then b else read_raw_varint_slow r b

let[@inline] read_varint r =
  let z = read_raw_varint r in
  (z lsr 1) lxor (- (z land 1))

let[@inline] read_uvarint r =
  let n = read_raw_varint r in
  if n < 0 then error "negative length";
  n

let read_string r =
  let len = read_uvarint r in
  if len > remaining r then
    error "string length %d exceeds remaining %d bytes" len (remaining r);
  let s = String.sub r.buf r.pos len in
  r.pos <- r.pos + len;
  s

let read_option f r =
  match read_u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | t -> error "bad option tag %d" t

let read_list f r =
  let n = read_uvarint r in
  if n > remaining r then
    error "list count %d exceeds remaining %d bytes" n (remaining r);
  (* Tail-modulo-cons: builds the list in order with no List.rev pass
     and constant stack. The element must be bound before the recursive
     call — OCaml would otherwise evaluate the cons right-to-left. *)
  let[@tail_mod_cons] rec go i =
    if i = 0 then []
    else
      let x = f r in
      x :: go (i - 1)
  in
  go n

(* --- Whole-value helpers ------------------------------------------- *)

let to_string ?cap write v =
  let w = writer ?cap () in
  write w v;
  contents w

let decode_all read s =
  let r = reader s in
  let v = read r in
  expect_end r;
  v

let of_string_opt read s =
  match decode_all read s with v -> Some v | exception Error _ -> None

let of_string_result read s =
  match decode_all read s with
  | v -> Ok v
  | exception Error msg -> Result.Error msg

let of_string_exn = decode_all
