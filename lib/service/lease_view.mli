(** One node's read-lease state for one broadcast group.

    The lease rides the total order: [Claim]/[Lease] markers are
    A-delivered payloads, and this value folds the ones a replica applies
    into two deadlines. [lease_until] is the end of this node's own lease,
    counted from the wall time it stamped its last granted marker before
    broadcasting it. [foreign_until] is the earliest time at which every
    lease another node could hold, as far as this replica has seen the
    order, has surely expired. A node serves while its own lease is live
    and [foreign_until] has passed.

    Volatile by design: a fresh incarnation starts from {!create}, so a
    replica crash forgets every apply time. Every function takes the
    caller's clock reading [now] (seconds), so the rule runs unchanged
    under a fake clock. Not thread-safe: the service calls it under the
    front lock. *)

type t

val epsilon : float
(** Slack added to every [foreign_until]: the bound on inter-node clock
    rate skew over one lease window plus the clock's granularity. *)

val create : self:int -> lease_s:float -> t
(** Fresh incarnation of node [self] with a [lease_s]-second window: no
    lease held, none to wait out. *)

val sent : t -> now:float -> stamp:int -> unit
(** [self] is about to broadcast its marker [stamp]: [now] becomes that
    marker's lease start should it be granted. Stamps older than ten
    windows are dropped (a grant for one is then ignored). *)

val on_marker :
  t ->
  now:float ->
  kind:[ `Claim | `Lease ] ->
  node:int ->
  stamp:int ->
  granted:bool ->
  unit
(** Apply one marker at local time [now], in total order. An own granted
    marker this incarnation sent renews the lease from its send time. A
    granted marker of another node pushes [foreign_until] to
    [now + lease + epsilon]: its holder stamped its lease start before
    broadcasting, hence before this apply. A granted rival [Claim] also
    voids the own lease. *)

val on_install : t -> now:float -> leader:int -> unit
(** An app checkpoint was installed at [now] (WAL recovery or a
    state-transfer jump) and its machine names [leader]. The markers it
    folds in were never applied here, so if any leader exists
    ([leader >= 0]) [foreign_until] is pushed to [now + lease + epsilon],
    which also outlasts every lease this view held before. *)

val serves : t -> now:float -> bool
(** The own lease is live and [foreign_until] has passed. *)
