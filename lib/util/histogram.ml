(* Log-bucketed histogram. See the .mli for the contract.

   Layout: 512 integer buckets with geometric bounds γ^b (γ = 1.04).
   Bucket 0 holds everything ≤ 1 (including zero and any negative
   samples); bucket b in [1, 510] holds (γ^(b-1), γ^b]; bucket 511 is
   the overflow for anything above γ^510 ≈ 4.85e8 — comfortably past
   any latency in µs or message size in bytes that this repo produces.

   Bucketing is a pure function of the sample value (one log + ceil),
   so two histograms fed the same multiset of samples have identical
   bucket arrays and merging is exact integer addition. The scalar
   float stats live in a float array rather than mutable record fields:
   float-array elements are unboxed, which keeps [add] allocation-free
   (a mutable float field in a mixed record would re-box on every
   store).

   The bucket array is allocated by the first [add] (or the first merge
   of a non-empty source): a registry pre-registers many series that a
   short run never observes, and each would otherwise pin 512 words of
   major heap from birth. *)

let gamma = 1.04
let log_gamma = log gamma
let n_buckets = 512
let last = n_buckets - 1 (* overflow bucket *)

let bucket_error = sqrt gamma -. 1.0

type t = {
  mutable counts : int array; (* [||] until the first sample *)
  stats : float array; (* [| sum; min; max |], min/max valid iff count > 0 *)
  mutable count : int;
}

type summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let create () = { counts = [||]; stats = [| 0.0; 0.0; 0.0 |]; count = 0 }

let ensure_counts (t : t) =
  if Array.length t.counts = 0 then t.counts <- Array.make n_buckets 0

let index v =
  if v <= 1.0 then 0
  else
    let b = int_of_float (ceil (log v /. log_gamma)) in
    if b < 1 then 1 else if b > last - 1 then last else b

(* Geometric midpoint of bucket [b]: γ^b / √γ, the point whose relative
   distance to both bucket edges is √γ − 1. Queries clamp it to the
   exact observed [min, max], which also gives bucket 0 and the
   overflow bucket sensible representatives. *)
let representative b =
  if b = 0 then 1.0 else gamma ** (float_of_int b -. 0.5)

let add (t : t) v =
  ensure_counts t;
  let b = index v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.stats.(0) <- t.stats.(0) +. v;
  if t.count = 0 then begin
    t.stats.(1) <- v;
    t.stats.(2) <- v
  end
  else begin
    if v < t.stats.(1) then t.stats.(1) <- v;
    if v > t.stats.(2) then t.stats.(2) <- v
  end;
  t.count <- t.count + 1

let count (t : t) = t.count
let sum (t : t) = t.stats.(0)
let mean (t : t) = if t.count = 0 then 0.0 else t.stats.(0) /. float_of_int t.count
let min_value (t : t) = if t.count = 0 then 0.0 else t.stats.(1)
let max_value (t : t) = if t.count = 0 then 0.0 else t.stats.(2)

let clamp (t : t) v =
  let v = if v < t.stats.(1) then t.stats.(1) else v in
  if v > t.stats.(2) then t.stats.(2) else v

let percentile (t : t) p =
  if t.count = 0 then 0.0
  else if p <= 0.0 then t.stats.(1)
  else if p >= 100.0 then t.stats.(2)
  else begin
    (* Nearest-rank: the smallest bucket whose cumulative count reaches
       ⌈p/100 · n⌉. *)
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let cum = ref 0 and b = ref 0 in
    (try
       for i = 0 to last do
         cum := !cum + t.counts.(i);
         if !cum >= rank then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    clamp t (representative !b)
  end

let merge_into ~dst (src : t) =
  if src.count > 0 then begin
    ensure_counts dst;
    for i = 0 to last do
      dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
    done;
    dst.stats.(0) <- dst.stats.(0) +. src.stats.(0);
    if dst.count = 0 then begin
      dst.stats.(1) <- src.stats.(1);
      dst.stats.(2) <- src.stats.(2)
    end
    else begin
      if src.stats.(1) < dst.stats.(1) then dst.stats.(1) <- src.stats.(1);
      if src.stats.(2) > dst.stats.(2) then dst.stats.(2) <- src.stats.(2)
    end;
    dst.count <- dst.count + src.count
  end

let merge a b =
  let t = create () in
  merge_into ~dst:t a;
  merge_into ~dst:t b;
  t

let copy (t : t) =
  {
    counts = Array.copy t.counts;
    stats = Array.copy t.stats;
    count = t.count;
  }

let clear (t : t) =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.stats.(0) <- 0.0;
  t.stats.(1) <- 0.0;
  t.stats.(2) <- 0.0;
  t.count <- 0

let summary (t : t) =
  {
    count = t.count;
    sum = sum t;
    mean = mean t;
    min = min_value t;
    max = max_value t;
    p50 = percentile t 50.0;
    p95 = percentile t 95.0;
    p99 = percentile t 99.0;
  }

let buckets (t : t) =
  let acc = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then begin
      let bound =
        if i = last then infinity else gamma ** float_of_int i
      in
      acc := (bound, t.counts.(i)) :: !acc
    end
  done;
  !acc
