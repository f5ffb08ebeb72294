(** Log-bucketed histograms for latency and size distributions.

    A histogram is a fixed-size array of integer bucket counts whose
    bucket boundaries grow geometrically (growth factor {e γ} = 1.04).
    Any non-negative sample in (1, ~4.8e8] lands in a bucket whose
    geometric midpoint is within ~2% relative error of the sample
    ((√γ − 1) ≈ 1.98%); values ≤ 1 share bucket 0 and values beyond the
    range share the overflow bucket. Exact [count], [sum], [min] and
    [max] are tracked alongside, so means are exact and p0/p100 are the
    true extremes — only interior percentiles carry the bucket error.

    Because bucketing is deterministic, merging two histograms is exact:
    [merge a b] has identical bucket counts to the histogram of the
    concatenated sample streams. The bucket array is allocated by the
    first sample, so an unused histogram costs a few dozen words; every
    later [add] allocates nothing, so histograms are safe on hot paths.
    Not thread-safe: confine each instance to one thread (the simulator
    is single-threaded; the live runtime keeps one Metrics table per
    node thread). *)

type t

(** Summary statistics of a histogram, as reported in tables, JSON and
    the Prometheus dump. [p50]/[p95]/[p99] are bucket-midpoint
    estimates (~2% relative error); the rest are exact. *)
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

val create : unit -> t
(** An empty histogram. Allocates no buckets until the first {!add}. *)

val add : t -> float -> unit
(** [add t v] records one sample. The first [add] allocates the bucket
    array; every later one is allocation-free. *)

val count : t -> int
val sum : t -> float

val mean : t -> float
(** Exact mean; [0.] when empty. *)

val min_value : t -> float
(** Exact smallest sample; [0.] when empty. *)

val max_value : t -> float
(** Exact largest sample; [0.] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0., 100.]: nearest-rank percentile
    estimated from bucket midpoints, clamped to [[min_value, max_value]].
    [p <= 0.] returns the exact minimum, [p >= 100.] the exact maximum;
    [0.] when empty. *)

val merge : t -> t -> t
(** [merge a b] is a fresh histogram equivalent to having added both
    sample streams; bucket counts are exactly the sums. *)

val merge_into : dst:t -> t -> unit
(** In-place variant of [merge]. *)

val copy : t -> t

val clear : t -> unit
(** Reset to empty in place (the bucket array, if any, is reused). *)

val summary : t -> summary

val buckets : t -> (float * int) list
(** Non-empty buckets as [(upper_bound, count)] pairs in increasing
    bound order, for exporters. The overflow bucket reports
    [infinity] as its bound. *)

val bucket_error : float
(** The documented relative error bound of bucket-midpoint estimates:
    √γ − 1 ≈ 0.0198. *)
