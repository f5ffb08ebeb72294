(** Durable, segmented, append-only write-ahead log.

    The paper's crash-recovery model (§2.1) makes stable storage the
    only state a process can trust after a crash. This module is the
    real implementation of that promise: every [put], [delete] and
    [delete_range] is framed as one CRC-guarded record and appended to
    an in-memory tail, {!flush} writes the whole tail to the current
    segment file with one [write] call, and {!open_} rebuilds the live
    key→value map by replaying all segments in order.

    {2 Flush contract}

    A record is in the file only after a {!flush}. {!sync}, {!close}, a
    segment roll, {!compact} and every fsync the policy makes due flush
    first, so the fsync pacing still counts records and never syncs a
    file that lacks them. The owner of a log flushes before any effect
    that depends on its records leaves the process: the live runtime
    before every datagram and every delivery upcall, the simulator at
    the end of every step. A crash loses at most the unflushed tail,
    which is what the fsync policy already allowed to be lost.

    {2 On-disk format}

    A directory holds segment files [wal-<seq>.log] (ten-digit,
    zero-padded, strictly increasing). A segment is a plain
    concatenation of records, each framed with the
    {!Abcast_util.Wire} codec:

    {v uvarint(len body) | body | crc32(body) as 4 bytes LE v}

    where [body] is one tag byte — [0] Put, [1] Delete, [2] Reset,
    [3] Range — followed by the length-prefixed key (and value, for
    Put). A Range record carries two length-prefixed keys [lo] and [hi]
    and removes every live key [k] with [lo <= k < hi] in byte order;
    replay applies it to the map rebuilt so far, exactly as the writer
    applied it to its live map, so replay still ends at the writer's
    map. [Reset]
    marks the start of a compaction snapshot: on replay it clears all
    state accumulated from earlier records, which is what makes
    crash-interrupted compaction safe (see below). Files ending in
    [.tmp] are in-flight compaction output; they are ignored and
    removed on open.

    {2 Torn-tail recovery}

    Replay is total: a record whose length field is truncated, whose
    body is short, whose checksum mismatches, or whose body fails to
    decode marks the {e end of the log}. The damaged segment is
    truncated back to the last whole record and every later segment is
    deleted, so the recovered state is always the effect of a {e prefix}
    of the appended operations — never a mangled record, never a gap.
    (A tail of operations may be lost, bounded by the {!Durable.policy};
    that is the crash-recovery contract, not a failure.)

    {2 Compaction}

    Deleting keys (the paper's §5 checkpoint/trim rule) leaves dead
    records behind. When the dead fraction crosses a threshold (or on
    an explicit {!compact}), the live bindings are rewritten into a
    fresh segment: [Reset] + one [Put] per live key, written to a
    [.tmp] file, fsynced, renamed into place as the next segment, and
    only then are the old segments unlinked. A crash at any point
    leaves a replayable log: before the rename the snapshot is
    invisible; after it, the [Reset] record makes surviving stale
    segments irrelevant regardless of how many of them the unlink loop
    reached. *)

type t

(** Monotonic counters, kept by every instance since {!open_} (mirrored
    into [Metrics] as [wal_*] by [Abcast_sim.Storage]). *)
type stats = {
  appends : int;  (** records appended (puts + deletes) *)
  writes : int;
      (** write calls issued: one per non-empty {!flush} and one per
          compaction snapshot *)
  fsyncs : int;  (** fsync system calls issued *)
  segments : int;  (** segment files currently on disk *)
  compactions : int;  (** completed compactions *)
  recovered_records : int;  (** records replayed by {!open_} *)
  torn_records : int;
      (** torn/corrupt tails hit by {!open_} (each truncated the log) *)
}

type io_op = [ `Append | `Fsync | `Recover ]
(** Operations reported through the [on_io] timing tap of {!open_}. *)

val open_ :
  ?segment_bytes:int ->
  ?fsync:Durable.policy ->
  ?compact_min_bytes:int ->
  ?auto_compact:bool ->
  ?on_io:(io_op -> float -> unit) ->
  dir:string ->
  unit ->
  t
(** Open (creating if needed) the log in [dir] and replay it.

    [segment_bytes] (default 1 MiB) is the roll threshold: a segment
    that reaches it is sealed and a new one started. [fsync] (default
    [Every {ops = 64; ms = 20}]) is the durability policy. Compaction
    triggers automatically (unless [auto_compact] is [false]) when dead
    bytes exceed [compact_min_bytes] (default 64 000) {e and} half of
    the on-disk log.

    [on_io], when given, is called with each operation's wall-clock
    duration in µs: once per tail write ([`Append], one per non-empty
    {!flush}), once per fsync
    ([`Fsync]), and once at the end of [open_] itself ([`Recover], the
    full replay cost). Omitted (the default), no clock is read —
    instrumentation costs nothing. [Abcast_sim.Storage] uses it to feed
    the [wal_append_us]/[wal_fsync_us]/[wal_recover_us] histograms. *)

val put : t -> string -> string -> unit
(** Append a Put record to the tail and update the live map. *)

val delete : t -> string -> unit
(** Append a Delete record to the tail (no-op if the key is absent). *)

val delete_range : t -> lo:string -> hi:string -> unit
(** Drop every live key in [\[lo, hi)] (byte order) and append one
    Range record to the tail. One record whatever the number of keys,
    none when no live key is in the range (as {!delete} of an absent
    key); the scan of the live map is O(live keys). *)

val flush : t -> unit
(** Write the tail to the current segment with one [write] call; a
    no-op when the tail is empty. *)

val pending : t -> int
(** Bytes appended to the tail and not yet written. *)

val find : t -> string -> string option

val mem : t -> string -> bool

val length : t -> int
(** Number of live keys. *)

val fold : t -> (string -> string -> 'a -> 'a) -> 'a -> 'a
(** Fold over every live binding (undefined order). This map is the
    only in-memory copy of the log's state: [Abcast_sim.Storage] reads
    it directly. *)

val sync : t -> unit
(** Flush, then fsync the current segment now, whatever the policy. *)

val compact : t -> unit
(** Flush, then rewrite live bindings into a fresh segment and unlink the old
    ones, unconditionally (automatic compaction applies the dead-bytes
    thresholds; an explicit call does not). *)

val disk_bytes : t -> int
(** Total bytes across all segment files once the tail is flushed — the
    footprint a recovering process must replay. Falls back towards the
    live-record size after compaction. *)

val close : t -> unit
(** Flush, fsync and close the segment fd. Idempotent; the instance is
    unusable for writes afterwards. *)

val wipe : t -> unit
(** Drop the tail, delete every segment and restart empty (test
    helper). *)

val stats : t -> stats

val dir : t -> string

val current_segment : t -> string
(** Path of the segment currently being appended to (tests use it to
    truncate/corrupt precise byte ranges). *)

(** {2 Test-only crash injection} *)

exception Injected_crash of string

val set_failpoint : t -> string option -> unit
(** With [Some "compact-before-rename"] or [Some "compact-after-rename"],
    this instance's {!compact} raises {!Injected_crash} at that point,
    simulating a process killed mid-compaction. The instance must then
    be discarded and the directory re-opened — which is exactly what the
    crash-fidelity tests assert recovers cleanly. Never set outside
    tests. *)
