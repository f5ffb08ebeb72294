(** Builders of packaged protocol stacks.

    {!make} closes a {!Protocol.config} into a {!Proto.t} that the
    harness can instantiate per process:
    [Factory.make { Protocol.paper_alternative with window = 4 }]. The
    [consensus] argument selects the black box ([`Paxos] default,
    [`Coord] for E8). *)

type consensus = [ `Paxos | `Coord ]

type app_factory = node:int -> group:int -> Protocol.app * (Payload.t -> unit)
(** Application hook builder, called at every (re)start of process
    [node] with a fresh application replica: returns the
    [A-checkpoint]/install hooks and the application's own deliver
    upcall (composed with the harness's instrumentation). Under
    {!sharded} it runs once per (process, group) — the shard mux rebinds
    the engine io per inner group before stack creation, so each group's
    hooks checkpoint into that group's scoped storage keys and survive
    compaction independently. *)

val make :
  ?consensus:consensus -> ?app_factory:app_factory -> Protocol.config -> Proto.t
(** The stack for [config]. Its name is ["naive"] when [paranoid_log],
    else ["basic"] without checkpoints and state transfer, else
    ["alt"]; ring dissemination appends ["+ring"], then ["/paxos"] or
    ["/coord"] (e.g. ["alt+ring/paxos"]). Its [A-broadcast] blocks
    unless [config.early_return]. The config is validated at each
    process start ({!Protocol.Make.create}). *)

val throughput :
  ?trace_sample:int -> ?group_app_factory:app_factory -> unit -> Proto.t
(** [make ?app_factory:group_app_factory
    { Protocol.throughput with trace_sample }] (default 0). *)

val sharded : ?route:(string -> int) -> shards:int -> Proto.t -> Proto.t
(** [sharded ~shards stack] multiplexes [shards] independent instances
    of a single-group [stack] on every process — one consensus pipeline,
    gossip/ring task and [Unordered]/[Agreed] state per group, behind
    one wire type tagged with a uvarint group id (see {!Shard.mux}).
    Storage is scoped to group-tagged keys in the shared store/WAL and
    every metrics series gains a ["g<g>/"] label. [route] maps payload
    data to a group when {!Proto.S.broadcast} gets no [?group]
    (default: data hash). [shards = 1]
    returns [stack] unchanged — names, keys and series stay exactly as
    before. *)
