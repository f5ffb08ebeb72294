(** Shared durability primitives: fsync policies and crash-safe file
    writes.

    The {!Wal} honors a {!policy}; the helpers here are the single place
    where the tmp+write+fsync+rename+dirsync dance is spelled out (the
    flight recorder's dumps use it). All fsync failures are swallowed
    (best effort on filesystems that reject fsync, e.g. some tmpfs/CI
    mounts): the policies trade durability for throughput, they never
    trade availability. *)

(** When appends are forced to disk. *)
type policy =
  | Always  (** fsync after every log operation: no completed op is lost *)
  | Every of { ops : int; ms : int }
      (** fsync once at least [ops] operations or [ms] milliseconds have
          accumulated since the last sync, whichever comes first — a
          crash loses at most that window *)
  | Never  (** never fsync: the OS page cache decides (crash-unsafe) *)

val policy_to_string : policy -> string
(** ["always"], ["every:<ops>:<ms>"], or ["never"] — inverse of
    {!policy_of_string}, used by the CLI and bench labels. *)

val policy_of_string : string -> (policy, string) result
(** Parse ["always"] / ["never"] / ["every:<ops>:<ms>"]. *)

val fsync_fd : Unix.file_descr -> unit
(** [Unix.fsync], errors swallowed. *)

val fsync_dir : string -> unit
(** Persist directory metadata (created/renamed/unlinked entries). On
    platforms where directories cannot be fsynced this is a no-op. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents (0o755). *)

val rm_rf : string -> unit
(** Remove a file or a directory tree, best effort; symlinks are removed,
    not followed. A missing path is a no-op. *)

val write_file : ?fsync:bool -> string -> string -> unit
(** [write_file path contents] writes atomically via
    [path ^ ".tmp"] + rename. With [~fsync:true] (default false) the
    data is fsynced before the rename and the parent directory after
    it, which is what makes the rename itself crash-safe: without both
    syncs a crash can leave an empty or missing file even though the
    write "succeeded". *)

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** Loop [Unix.write] until all [len] bytes from [off] are written. *)

type pacer
(** Mutable decision state for one backend instance applying a
    {!policy}: counts unsynced operations and remembers the last sync
    time. *)

val pacer : policy -> pacer

val policy : pacer -> policy

val note_op : pacer -> bool
(** Record one completed (unsynced) log operation; [true] when the
    policy demands a sync now ([Always] every time, [Every] when either
    threshold is crossed, [Never] never). *)

val note_sync : pacer -> unit
(** Record that a sync happened: resets the op count and the clock. *)

val pending : pacer -> bool
(** Whether any operation since the last sync is still unsynced. *)
