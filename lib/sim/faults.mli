(** Fault injection: crash/recovery schedules.

    Builds the paper's process classification (§3.3) into test scenarios:
    a {e good} process eventually remains permanently up; a {e bad} process
    eventually stays down or oscillates forever. Plans are generated purely
    from an {!Abcast_util.Rng.t} (so they are reproducible), then applied
    to an engine as scheduled crash/recover actions. *)

type kind = Crash | Recover

type event = { time : Engine.time; node : int; kind : kind }

type plan = {
  events : event list;  (** time-ordered crash/recover actions *)
  good : bool array;  (** classification of each process *)
  horizon : Engine.time;  (** end of the disturbed period *)
}

val down_between :
  'm Engine.t -> node:int -> from_:Engine.time -> until:Engine.time -> unit
(** Schedule one crash at [from_] and a recovery at [until]. *)

val plan_random :
  rng:Abcast_util.Rng.t ->
  n:int ->
  ?n_bad:int ->
  ?mtbf:int ->
  ?mttr:int ->
  stability:Engine.time ->
  unit ->
  plan
(** [plan_random ~rng ~n ~stability ()] draws a schedule over
    [\[0, stability)]:

    - [n_bad] processes (default 0, must leave a majority good) are marked
      bad; each either crashes permanently at a random time or oscillates
      with the given mean times; bad oscillation continues past
      [stability] up to [4 * stability].
    - good processes crash and recover with exponential inter-event times
      of mean [mtbf] (default [stability/4]) and downtime mean [mttr]
      (default [stability/20]); their last recovery is scheduled strictly
      before [stability], after which they stay up forever.

    The returned plan always keeps every good process's final state up. *)

val apply : 'm Engine.t -> plan -> unit
(** Schedule every event of the plan on the engine. *)

val good_nodes : plan -> int list
(** Identities of the good processes, ascending. *)
