(** Per-run measurement registry.

    Counters are keyed by [(node, name)]; [node = -1] holds run-global
    counters. Protocol layers use hierarchical dotted names
    (e.g. ["log_ops.abcast"], ["log_ops.consensus"], ["msgs_sent"]) so
    experiments can aggregate by prefix. Observations ([observe]) record
    scalar samples, e.g. per-message delivery latencies, into a series
    that is a log-bucketed {!Abcast_util.Histogram} and nothing else: no
    sample is kept, so a series' size is bounded however long a process
    runs. Counts, sums, means and the extremes are exact; interior
    percentiles carry the histogram's {!Abcast_util.Histogram.bucket_error}
    (~2% relative). *)

type t
(** A mutable registry. One per simulation run. *)

val create : unit -> t
(** Fresh, empty registry (root scope). *)

val scoped : t -> string -> t
(** [scoped t prefix] is a view of the same registry that stamps [prefix]
    onto every counter and series name it registers or reads. Views share
    storage with [t]: a counter bumped through a scoped view is visible
    to the root registry under its full (prefixed) name. Scopes nest —
    [scoped (scoped t a) b] prefixes [a ^ b]. *)

val scope : t -> string
(** The accumulated name prefix of this view ([""] for the root). *)

val group_prefix : int -> string
(** ["g<g>/"] — the conventional scope prefix for broadcast group [g].
    Aggregating readers ({!sum}, {!count_samples}, {!histogram}, ...) treat
    this prefix as a label: querying a bare name from the root registry
    sums every group's series, while querying the full ["g<g>/name"]
    reads exactly one group. *)

val split_group : string -> int * string
(** Parse a (possibly group-prefixed) series name into
    [(group, base_name)]; names without a ["g<digits>/"] prefix are
    group [0]. *)

val incr : t -> node:int -> string -> unit
(** Add 1 to a counter. *)

val add : t -> node:int -> string -> int -> unit
(** Add an arbitrary amount to a counter. *)

type handle
(** A pre-resolved counter: the hot paths look a counter up once (paying
    the [(node, name)] hashing) and afterwards bump it through the handle
    for free. Handles share storage with the named counter — [get]/[sum]
    observe updates made through a handle and vice versa. {!reset} zeroes
    counters in place, so outstanding handles stay attached: increments
    made after a reset remain visible through [get]/[sum]. *)

val handle : t -> node:int -> string -> handle
(** Resolve (creating if needed) the counter [(node, name)]. *)

val hincr : handle -> unit
(** Add 1 through a handle. *)

val hadd : handle -> int -> unit
(** Add an arbitrary amount through a handle. *)

val hget : handle -> int
(** Current value seen through a handle. *)

val get : t -> node:int -> string -> int
(** Current value of a counter (0 if never touched). *)

val sum : t -> string -> int
(** Sum of a counter over all nodes (including the global node). *)

val sum_prefix : t -> string -> int
(** Sum over all nodes of every counter whose name starts with the given
    dotted prefix (["log_ops"] matches ["log_ops.abcast"] etc.). *)

val observe : t -> node:int -> string -> float -> unit
(** Record one sample in a named series' histogram. *)

val hist : t -> node:int -> string -> Abcast_util.Histogram.t
(** The live histogram backing the series [(node, name)], creating the
    series if needed. Like {!handle} for counters: hot paths resolve
    once, then [Histogram.add] directly without per-sample hashing;
    samples recorded this way are indistinguishable from [observe]d
    ones. Stays attached across {!reset}. *)

val mean : t -> string -> float
(** Exact mean of a series across nodes ([nan] if empty). *)

val percentile : t -> string -> float -> float
(** [percentile t name p] with [p] in [\[0,100\]] ([nan] if empty): the
    nearest-rank percentile of the series across nodes, read from its
    merged histogram. [p <= 0.] and [p >= 100.] give the exact minimum
    and maximum; any other [p] gives the representative of the bucket
    holding the nearest-rank sample, clamped to [\[min, max\]], so it is
    within {!Abcast_util.Histogram.bucket_error} (relative) of that
    sample when the sample exceeds 1. *)

val count_samples : t -> string -> int
(** Exact number of recorded samples of a series across nodes. *)

val histogram : t -> string -> Abcast_util.Histogram.t option
(** Fresh histogram merging a series across all nodes; [None] if the
    series was never observed on any node. *)

val hist_summary : t -> string -> Abcast_util.Histogram.summary option
(** Summary (count/mean/min/max/p50/p95/p99) of {!histogram}. *)

val histograms : t -> ((int * string) * Abcast_util.Histogram.t) list
(** Snapshot (copies) of every per-node histogram, sorted by key, for
    exporters. *)

val series_names : t -> string list
(** Sorted distinct names of all observed series. *)

val counters : t -> ((int * string) * int) list
(** Snapshot of all counters, sorted, for debugging and table dumps. *)

val reset : t -> unit
(** Zero every counter and clear every series {e in place}. Interned
    {!handle}s and {!hist} references resolved before the reset remain
    attached — counting through them after a reset is visible to
    [get]/[sum] (it used to vanish into detached storage). *)
