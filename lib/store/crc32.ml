(* CRC-32 (IEEE), reflected form, one 256-entry table computed at module
   initialisation, before any thread can read it. The checksum lives in
   an int masked to 32 bits. *)

let poly = 0xEDB88320

let table =
  let rec entry c bit =
    if bit = 8 then c
    else entry (if c land 1 = 1 then (c lsr 1) lxor poly else c lsr 1) (bit + 1)
  in
  Array.init 256 (fun n -> entry n 0)

let update_byte crc b =
  let idx = (crc lxor b) land 0xff in
  Array.unsafe_get table idx lxor (crc lsr 8)

let run get len off =
  let crc = ref 0xFFFF_FFFF in
  for i = off to off + len - 1 do
    crc := update_byte !crc (get i)
  done;
  !crc lxor 0xFFFF_FFFF

let string ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Crc32.string: window outside string";
  run (fun i -> Char.code (String.unsafe_get s i)) len off

let bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32.bytes: window outside buffer";
  run (fun i -> Char.code (Bytes.unsafe_get b i)) len off
