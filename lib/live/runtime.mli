(** Live runtime: the same protocol stacks on real OS primitives.

    Where {!Abcast_sim.Engine} interprets a protocol against simulated
    time, this runtime interprets the {e same unmodified code} — anything
    packaged as a {!Abcast_core.Proto.t} — against the real world:

    - each process runs as one OS thread with a single-threaded event
      loop (the protocol code never sees concurrency);
    - channels are UDP datagrams on localhost — genuinely unreliable,
      unordered and size-limited, exactly the fair-lossy channel of §3.1.
      Messages are framed with the {!Abcast_util.Wire} binary codec, and
      both failure directions are counted per process ({!net_stats}):
      oversized encodings (e.g. huge state transfers) are refused at the
      send site rather than silently truncated in flight, and received
      bytes that fail the bounds-checked decode are dropped, never raised
      into the event loop. A process's messages to itself skip the
      socket: they queue in-process and are handled before the loop
      flushes its outgoing datagrams, like the simulator's reliable
      local hand-off;
    - stable storage is file-backed ({!Abcast_sim.Storage} with a
      directory): process state genuinely survives {!crash}/{!recover},
      including the boot counter that makes message identities unique
      across incarnations;
    - crashing a process kills its thread and discards its socket buffer
      (the input buffer of a down process is lost, §2.1).

    All interaction with a process's protocol state is marshalled into
    its event loop, so the single-threaded discipline the protocol
    assumes is preserved; the functions below are safe to call from the
    controlling thread. Runs are {e not} deterministic — that is the
    point; the simulator is the instrument for reproducibility, this
    runtime is the proof that nothing in the stack depends on it. *)

type t

val max_datagram : int
(** Largest datagram the runtime will send or accept (safe UDP payload
    bound on loopback). *)

(** The batched datagram format of the send path: one ['B'] datagram
    carries the source id followed by any number of length-prefixed
    protocol frames, so the event loop can coalesce several messages per
    [sendto]. Exposed for tests that exercise the encoder's pooled,
    allocation-free steady state. *)
module Frame : sig
  val start : Abcast_util.Wire.writer -> src:int -> unit
  (** Reset [w] and write the ['B'] header for source [src]. *)

  val add : Abcast_util.Wire.writer -> msg:Abcast_util.Wire.writer -> unit
  (** Append one already-encoded frame (length prefix + bytes of
      [msg]). *)
end

val create :
  Abcast_core.Proto.t ->
  n:int ->
  ?base_port:int ->
  ?dir:string ->
  ?backend:[ `Wal ] ->
  ?fsync:Abcast_store.Durable.policy ->
  ?flight_cap:int ->
  ?on_deliver:(node:int -> group:int -> Abcast_core.Payload.t -> unit) ->
  ?metrics_port:int ->
  unit ->
  t
(** Bind one UDP socket per process on [127.0.0.1:base_port+i] (default
    base port 7400) and start every process. With [dir], process [i]
    persists its stable storage under [dir/node<i>/] in the segmented
    write-ahead log with durability [fsync] (default
    [Every {ops = 64; ms = 20}]) — required for {!recover} to actually
    recover. Without [dir] storage is memory-only. [backend] names the
    only backend there is and is accepted for source compatibility.
    [on_deliver] runs in the delivering process's thread with the
    delivering node, the broadcast group ([0] on a single-group stack)
    and the payload; keep it short and synchronize your own data.

    Each process runs one event loop. A pass waits in [select] up to the
    next pending timer (cancelled ones are dropped first, so they wake
    nothing), drains the socket, fires the due timers, runs the
    mailbox, then ships every coalesced datagram. The process counts
    its passes ([loop_passes]) and the timers that ran ([timer_fires])
    among its counters ({!node_counters}, {!prometheus}). The store's
    WAL tail is written ({!Abcast_sim.Storage.flush}) before every [sendto] and
    before every [on_deliver] upcall, so neither a frame nor a client
    acknowledgement leaves before the records behind it are in the
    file.

    [flight_cap] (default 8192, [0] disables) sizes each process's crash
    flight recorder ({!Abcast_sim.Flight}): a fixed, allocation-free ring
    of lifecycle events that survives incarnations in memory and, with
    [dir], is persisted to [dir/node<i>/flight.bin] about once a second,
    at clean loop exit and on {!request_dump} — so even a SIGKILL'd
    process leaves a black box next to its WAL for [abcast-sim doctor].

    With [metrics_port], a background thread serves the {!prometheus}
    dump over HTTP on [127.0.0.1:metrics_port] (one blocking request at
    a time — built for a scraper, not a crowd); {!shutdown} joins it.
    This is the one live metrics export.

    @raise Unix.Unix_error if sockets cannot be created (callers may want
    to skip live tests in restricted environments). *)

val n : t -> int

val shards : t -> int
(** Number of broadcast groups the stack multiplexes
    ({!Abcast_core.Proto.S.shards}); [1] for any unsharded stack. *)

val now_us : t -> int
(** Microseconds since the runtime was created — the clock flight events
    are stamped with. *)

val flight : t -> int -> Abcast_sim.Flight.t
(** Process [i]'s flight recorder ({!Abcast_sim.Flight.disabled} when
    [flight_cap = 0]). Layers above the runtime (the service) record
    their own lifecycle events into it; recording is wait-free and a
    concurrent record from another thread is at worst one garbled
    advisory event, never a crash. *)

val request_dump : t -> unit
(** Ask every up process to persist its flight recorder now (each node
    loop notices on its next pass). The [abcast-sim] binary maps SIGUSR1
    to this. No-op without [dir]. *)

val prom_histogram :
  Buffer.t -> name:string -> labels:string -> Abcast_util.Histogram.t -> unit
(** Append one histogram's Prometheus exposition lines: cumulative
    [name_bucket{labels,le="..."}] per finite bound, the [+Inf] bucket,
    [name_sum] and [name_count]. [labels] is the comma-separated label
    list without braces. Shared by {!prometheus} and render hooks. *)

val set_prom_extra : t -> (Buffer.t -> unit) -> unit
(** Register an extra render hook appended to every {!prometheus} dump
    (text format lines, newline-terminated). The service layer exports
    its per-class request-latency histograms through this. *)

val is_up : t -> int -> bool
(** False once crashed, or once its event loop raised. *)

val loop_deaths : t -> int -> int
(** How many of the process's event loops ended by an exception (each
    records a [loop_died] flight event and leaves the node down); readable
    while it is down. *)

val crash : t -> int -> unit
(** Kill the process's thread; volatile state and queued datagrams are
    lost, files remain. Blocks until the thread has exited. *)

val recover : t -> int -> unit
(** Restart a crashed process: a fresh incarnation re-reads its files and
    runs the protocol's recovery procedure, for real. *)

val broadcast : ?group:int -> t -> node:int -> string -> unit
(** Inject an [A-broadcast] at an up process (no-op if down). Without
    [group] the stack routes by payload hash (group [0] on a
    single-group stack); with it, the broadcast is pinned to that group
    of a sharded stack ({!Abcast_core.Proto.S.broadcast}). *)

(** The readings below are synchronous queries into the process's thread
    that return an empty reading if the process is down. With [group]
    they read one broadcast group, otherwise the whole stack as
    {!Abcast_core.Proto} aggregates it (counts summed, tails
    concatenated group by group). *)

val delivered_count : ?group:int -> t -> int -> int
(** Length of the process's delivery sequence. *)

val delivered_data : ?group:int -> t -> int -> string list
(** Payload bytes of the process's explicit delivery tail, in order. *)

val round : t -> int -> int
(** Consensus rounds executed, summed over groups. *)

type net_stats = {
  tx_oversize : int;
      (** datagrams refused at the send site because their encoding
          exceeded the safe UDP payload size — the protocol sees loss, the
          counter (plus a stderr line) says why *)
  rx_undecodable : int;
      (** received datagrams dropped because they failed the
          bounds-checked wire decode (truncation, garbage, bad source) *)
}

val net_stats : t -> int -> net_stats
(** Datagram drop counters of one process's current incarnation (zeros if
    the process is down). *)

val node_counters : t -> int -> (string * int) list
(** Counter snapshot of one process's metrics table ([] if down). Like
    every query, this is answered inside the process's event loop. *)

val hist_summaries : t -> int -> (string * Abcast_util.Histogram.summary) list
(** Summaries of the process's non-empty latency/size histograms
    ([] if down): stage latencies, consensus timings, WAL I/O
    durations — whatever the stack observed. *)

val prometheus : t -> string
(** Render a Prometheus text-format ([version 0.0.4]) dump of every up
    process: counters as gauges and observed series as cumulative
    histograms, all under an [abcast_] prefix with a [node] label (dots
    in series names become underscores, e.g.
    [abcast_stage_propose_to_adeliver_us_bucket{node="0",le="..."}]).
    On a sharded stack the per-group ["g<g>/"] name prefixes are lifted
    into a [group] label ([{node="0",group="2"}]) so each base series
    keeps one [# HELP]/[# TYPE]; single-group output is unchanged.
    This is the payload the [metrics_port] endpoint serves. *)

val shutdown : t -> unit
(** Crash everything and close all sockets. The runtime is unusable
    afterwards. *)
