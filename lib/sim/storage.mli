(** Simulated stable storage (paper §2.1: [log] / [retrieve]).

    One instance per process. Its contents survive simulated crashes (the
    engine resets only volatile state); it is the *only* state a recovering
    process can rely on. Every write and delete is accounted against the
    issuing layer so experiments can check the paper's minimal-logging
    claim: counters ["log_ops.<layer>"] and ["log_bytes.<layer>"] in
    {!Metrics}, plus the currently retained footprint via {!retained_bytes}
    (used for the log-growth experiment E3).

    Reads always hit an in-memory key→value map, and a store holds
    exactly one. Without a directory it is a table of this module and
    nothing reaches disk ("stability" is the simulator's promise); with
    one it is the live map of the segmented write-ahead log of
    {!Abcast_store.Wal}, which the replay at creation rebuilds and this
    module reads in place: every write/delete is one CRC-guarded record
    on the log's in-memory tail, {!flush} writes the tail with one
    [write] call (the engine that owns the store calls it before any
    effect leaves the process), recovery is a sequential replay with torn-tail truncation, and key
    deletion (the paper's §5 checkpoint/trim rule) triggers compaction
    that keeps the on-disk footprint proportional to the live state.

    The WAL mirrors its activity into {!Metrics}: ["wal_appends"]
    (records), ["wal_writes"] (write calls), ["wal_fsyncs"], ["wal_segments"], ["wal_compactions"],
    ["wal_recovered_records"] and ["wal_torn_records"], plus the
    wall-clock latency histograms (series observed via {!Metrics.hist})
    ["wal_append_us"] (one sample per write call), ["wal_fsync_us"] and
    ["wal_recover_us"] (replay cost at open). *)

type t
(** Stable storage of one process. *)

val create :
  ?dir:string ->
  ?fsync:Abcast_store.Durable.policy ->
  ?flight:Flight.t ->
  ?flight_now:(unit -> int) ->
  metrics:Metrics.t ->
  node:int ->
  unit ->
  t
(** Storage for process [node], accounting into [metrics].

    [flight] (default {!Flight.disabled}) additionally records each WAL
    append/fsync as a flight event with its duration, stamped with
    [flight_now ()] µs (default: wall clock) so the live runtime can
    keep flight timestamps on its own run-relative clock.

    With [dir] the store is a WAL in that directory, otherwise memory
    only. [fsync] (default [Every {ops = 64; ms = 20}]) is the WAL's
    durability policy (see {!Abcast_store.Wal.open_}); segments roll and
    compaction triggers at its defaults. An existing WAL is replayed at creation
    — this is what lets state survive {e real} process restarts in the
    live runtime. *)

val scoped : t -> prefix:string -> t
(** [scoped t ~prefix] is a view of the same physical store that stamps
    [prefix] onto every key it reads or writes ({!keys_with_prefix}
    returns keys with the prefix stripped, so a scoped reader round-trips
    cleanly). Views share the backend: one WAL holds the
    group-tagged records of every view and recovers them all in one
    replay. Whole-store operations ({!sync}, {!close}, {!wipe},
    {!retained_bytes}, {!wal_stats}, the byte accounting) act on the
    physical store regardless of which view they are called through.
    Scopes nest. Sharded stacks scope each broadcast group to
    ["g<id>/"]. *)

val scope : t -> string
(** The accumulated key prefix of this view ([""] for the root). *)

val write : t -> layer:string -> key:string -> string -> unit
(** [write t ~layer ~key v] durably stores [v] under [key]. Counts one
    log operation and [String.length v] bytes for [layer].
    Overwrites silently. *)

val read : t -> string -> string option
(** Retrieve the value stored under a key, if any. Reads are free. *)

val mem : t -> string -> bool
(** Whether a key is present. *)

val delete : t -> layer:string -> string -> unit
(** Remove a key (log truncation). Counts one log operation. *)

val delete_range : t -> layer:string -> lo:string -> hi:string -> unit
(** Remove every key [k] with [lo <= k < hi] in byte order (a scoped
    view confines both bounds to its prefix). Counts one log operation
    and, on the WAL backend, appends one Range record
    ({!Abcast_store.Wal.delete_range}), whatever the number of keys; a
    no-op when no key lies in the range. *)

val keys_with_prefix : t -> string -> string list
(** All present keys starting with the given prefix, sorted. *)

val retained_bytes : t -> int
(** Total size of currently stored values — the live log footprint. *)

val retained_keys : t -> int
(** Number of currently stored keys. *)

val flush : t -> unit
(** Write the WAL's tail of appended records with one [write] call (see
    {!Abcast_store.Wal.flush}). No-op when nothing is pending and for a
    memory store. *)

val sync : t -> unit
(** Flush outstanding durability work now (pending batched fsyncs),
    whatever the policy. No-op for a memory store. *)

val close : t -> unit
(** Release the backend's file descriptors after a final {!sync}. The
    instance must not be written afterwards (the live runtime closes a
    node's storage when its event loop exits). *)

val set_wal_failpoint : t -> string option -> unit
(** {!Abcast_store.Wal.set_failpoint} on the WAL (test-only). *)

val wal_stats : t -> Abcast_store.Wal.stats option
(** The WAL's counters ([None] for a memory store). *)

val disk_bytes : t -> int
(** On-disk footprint: WAL segment bytes, 0 for a memory store. The
    quantity a recovering process must read back, and the thing WAL
    compaction bounds. *)

val wipe : t -> unit
(** Clear everything (test helper; never called by protocols). *)

(** Typed single-value cell on top of {!t}, serialized by an explicit
    codec — protocols use {!Abcast_util.Wire} codecs for their cells. *)
module Slot : sig
  type 'a slot

  val make :
    codec:('a -> string) * (string -> 'a option) ->
    t ->
    layer:string ->
    key:string ->
    'a slot
  (** A typed view of one key. [codec] is [(encode, decode)]; the decoder
      returns [None] on malformed bytes. *)

  val set : 'a slot -> 'a -> unit
  (** Durably store a value (one log operation). *)

  val get : 'a slot -> 'a option
  (** Read back the stored value, if present. *)

  val clear : 'a slot -> unit
  (** Delete the key (one log operation). *)
end

val encode : 'a -> string
(** [Marshal] serialization for the example applications' command and
    checkpoint blobs (plain data types only, no closures). *)

val decode : string -> 'a
(** Inverse of {!encode}. Unsafe in general; callers fix ['a] by
    annotation at a data type. *)
