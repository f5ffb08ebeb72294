(** Offline causal trace analyzer ([abcast-sim doctor]).

    Merges the per-node flight-recorder dumps of a live run directory
    ([node<i>/flight.bin], see {!Abcast_sim.Flight}), reconstructs the
    cross-node causal timeline of every sampled broadcast (submit →
    broadcast → dissemination hops → propose/decide → apply → ack),
    breaks the latency into per-stage components, and cross-checks the
    merged history for protocol anomalies:

    - [stuck-instance] — a consensus instance proposed but never decided
      anywhere while later instances of its group did decide;
    - [delivery-gap] — a node whose apply positions bracket a sampled
      payload's position without ever applying it (state-transfer jumps
      excuse the hole);
    - [dedup-violation] — one sampled payload applied twice by the same
      incarnation of a node;
    - [lease-overlap] — a read-index lease renewed for a node that is
      not the current claim holder;
    - [audit-diverged] — the online order audit tripped live: a peer's
      order certificate mismatched a node's own delivery chain;
    - [order-divergence] — two nodes' delivery chain hashes disagree at
      the same grid-aligned position of one group (the minority side is
      named: it delivered a different prefix);
    - [stale-lin-read] (with [~audit:true]) — a client history records a
      linearizable read that missed a write acked before the read was
      invoked.

    It also extracts a per-(node, boot) recovery timeline — storage
    replay size and duration, protocol replay rounds, state-transfer
    jump, and the boot-to-first-delivery catch-up time — and the
    failure detector's suspect/trust flips, each suspicion followed by
    the node's next decide, so a failover (kill → suspicion at a
    survivor → first decide) reads off the dumps.

    All rules compare facts the total order makes deterministic, so a
    ring buffer that overwrote old events can hide an anomaly but never
    fabricate one. *)

type trace_info = {
  tid : int;  (** packed {!Abcast_core.Trace_ctx} id *)
  origin : int;  (** originating node (from the id) *)
  submit_time : int option;
  bcast_time : int option;
  first_rx : (int * int) list;  (** (node, µs) first sight per node *)
  proposes : (int * int) list;  (** (instance, µs) *)
  decide_time : int option;
  applies : (int * int * int) list;  (** (node, µs, apply position) *)
  ack_time : int option;
  complete : bool;  (** full causal path present in the dumps *)
}

type stage_stat = {
  stage : string;
  count : int;
  mean_us : float;
  max_us : float;
}

type anomaly = { code : string; detail : string }

type recovery = {
  rv_node : int;
  rv_boot : int;
  rv_replay_records : int;  (** stable-storage records replayed at boot *)
  rv_replay_us : int;
  rv_rounds : int;  (** consensus rounds re-run by protocol recovery *)
  rv_protocol_us : int;
  rv_stjump : (int * int) option;  (** state transfer jumped from → to *)
  rv_caught_len : int;
      (** delivery length at the first post-recovery delivery; [-1] if
          the node never caught up within the dump *)
  rv_caught_us : int;  (** µs from boot to that first delivery *)
}

type fd_flip = {
  ff_node : int;
  ff_group : int;
  ff_time : int;  (** µs on the node's flight clock *)
  ff_peer : int;
  ff_epoch : int;  (** the peer's epoch as the node knew it *)
  ff_suspect : bool;  (** [true]: suspected; [false]: trusted again *)
  ff_next_decide : int option;
      (** after a suspicion, when the node next decided an instance of
          that group (the end of a failover as this node saw it) *)
}
(** One failure-detector flip ({!Abcast_sim.Flight.suspect} /
    {!Abcast_sim.Flight.trust} event). *)

type audit_summary = {
  au_histories : int;  (** client history files merged *)
  au_events : int;  (** completed client ops across them *)
  au_lin_reads : int;  (** linearizable reads checked for real-time order *)
  au_chain_points : int;  (** (group, position) chain grid points compared *)
}

type report = {
  dir : string;
  nodes : int list;
  events : int;
  dropped : int;
  dropped_by_node : (int * int) list;
  boots : (int * int) list;
  traces : trace_info list;
  stages : stage_stat list;
  recoveries : recovery list;
  fd_flips : fd_flip list;  (** every flip in the dumps, in time order *)
  audit : audit_summary option;
  anomalies : anomaly list;
  notes : string list;
}

val analyze :
  ?max_traces:int -> ?audit:bool -> dir:string -> unit -> (report, string) result
(** Load and analyze a run directory. [max_traces] (default 64) bounds
    how many sampled traces are fully reconstructed. [audit] (default
    false) additionally merges any [*.history] client capture files at
    the top level of [dir] and checks real-time order against them.
    [Error] only when no readable dump exists at all; individual
    unreadable dumps become report notes. *)

val has_anomalies : report -> bool

val reconstructed : report -> int
(** Number of analyzed traces whose full causal path was recovered. *)

val render : ?verbose:bool -> report -> string
(** Human-readable report. [verbose] prints every trace's timeline;
    otherwise only incomplete traces are expanded. *)

val chrome_json : Abcast_sim.Flight.event list -> string
(** The events (any number of nodes, any order) as a Chrome
    [trace_event] JSON array for chrome://tracing or Perfetto, sorted so
    [ts] is monotone. A node's untraced propose of instance [j] and its
    decide of [j] form an async ["consensus"] span; a sampled payload's
    [bcast] and its first [apply] on the origin form an async ["abcast"]
    span. Every other event is an instant event named by
    {!Abcast_sim.Flight.stage_name}. [pid] and [tid] are the node id. *)
