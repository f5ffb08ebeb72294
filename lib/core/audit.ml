(* Online order audit: incremental delivery hash chains and the compact
   certificates that carry them between nodes.

   Every A-deliver folds the payload identity into a per-group chain
   hash — an order-sensitive polynomial accumulate, a handful of int
   multiplies and adds with no allocation — so two nodes that delivered
   the same prefix in the same order hold the same chain value at every
   position. A certificate is just (boot, len, chain-after-len); a
   receiver holding a chain value at the same position compares, and any
   difference is a total-order violation (the paper's agreement/total
   order pair) caught while the system is still running.

   The window remembers the chain value at the last [cap] positions so a
   receiver can compare against a certificate that lags its own frontier
   (gossip is asynchronous; senders are rarely at the same len). It is a
   pair of int arrays indexed by position modulo capacity — positions
   are consecutive, so lookup is O(1) and recording is two stores. *)

module Wire = Abcast_util.Wire

(* FNV-1a-style prime; the fold is a polynomial in it over the (origin,
   boot, seq) triples, masked positive (kept mod 2^62) so certificates
   encode as plain uvarints. With c(id) = (origin + 1)·p² + boot·p + seq,
   swapping adjacent deliveries x, y moves the chain by
   (c(x) − c(y))·(p³ − 1), which later folds multiply by the odd p³;
   p ≡ 3 (mod 4) leaves p³ − 1 one factor of two, so the swap is unseen
   iff c(x) ≡ c(y) (mod 2^61). Exactly: ids that differ in one field by
   0 < |d| < 2^61 differ in c by d·pⁱ, so their swap always changes the
   chain (seqs 0 and 2^61 alias). Any other pair gets only the collision
   resistance of a 62-bit hash. *)
let prime = 0x100000001b3

let[@inline] mix h (id : Payload.id) =
  let h = (h * prime) + (id.origin + 1) in
  let h = (h * prime) + id.boot in
  let h = (h * prime) + id.seq in
  h land max_int

let empty = 0

type window = {
  w_cap : int;
  w_hash : int array;
  mutable w_last : int;  (* highest position noted; 0 = nothing yet *)
  mutable w_count : int;  (* contiguous positions ending at [w_last] *)
}

let window ~cap () =
  if cap < 0 then invalid_arg "Audit.window: negative cap";
  { w_cap = cap; w_hash = Array.make (max cap 1) 0; w_last = 0; w_count = 0 }

let note w ~pos ~hash =
  if w.w_cap > 0 && pos > 0 then
    if pos = w.w_last + 1 && w.w_count > 0 then begin
      Array.unsafe_set w.w_hash (pos mod w.w_cap) hash;
      w.w_last <- pos;
      if w.w_count < w.w_cap then w.w_count <- w.w_count + 1
    end
    else begin
      (* discontinuity (restore / state transfer): restart the window *)
      Array.unsafe_set w.w_hash (pos mod w.w_cap) hash;
      w.w_last <- pos;
      w.w_count <- 1
    end

let hash_at w ~pos =
  if w.w_count > 0 && pos <= w.w_last && pos > w.w_last - w.w_count then
    Some w.w_hash.(pos mod w.w_cap)
  else None

let reset w =
  w.w_last <- 0;
  w.w_count <- 0

(* ---- certificates ---- *)

type cert = { c_boot : int; c_len : int; c_hash : int }

let write_cert w (c : cert) =
  Wire.write_uvarint w c.c_boot;
  Wire.write_uvarint w c.c_len;
  Wire.write_uvarint w c.c_hash

let read_cert r =
  let c_boot = Wire.read_uvarint r in
  let c_len = Wire.read_uvarint r in
  let c_hash = Wire.read_uvarint r in
  if c_len < 0 || c_hash < 0 then Wire.error "audit: negative cert field";
  { c_boot; c_len; c_hash }

type verdict = [ `Match | `Mismatch | `Unknown ]

(* Compare a received certificate against our own chain window. [`Unknown]
   when the cert's position has already slid out of (or not yet entered)
   our window — not evidence either way. *)
let check w (c : cert) : verdict =
  match hash_at w ~pos:c.c_len with
  | None -> `Unknown
  | Some h -> if h = c.c_hash then `Match else `Mismatch
