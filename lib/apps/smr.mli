(** State-machine replication on top of Atomic Broadcast.

    The canonical use the paper motivates (§1): every replica applies the
    same totally ordered command sequence to a deterministic state
    machine, so all replicas stay consistent. The functor also produces
    the [A-checkpoint]/install hooks of the augmented interface (Fig. 5):
    the application state *is* the checkpoint, logically containing all
    applied commands. *)

module type MACHINE = sig
  type state

  val name : string

  val initial : state

  val apply : state -> string -> state
  (** Apply one delivered command (must be deterministic). Unparseable
      commands must be ignored (return the state unchanged), never
      raise — a replica cannot refuse a command others accept. *)
end

module Make (M : MACHINE) : sig
  type t
  (** One replica (volatile; rebuilt on recovery by replay or checkpoint
      installation). *)

  val create : unit -> t

  val state : t -> M.state

  val applied : t -> int
  (** Number of commands reflected in [state] (including those inside an
      installed checkpoint). *)

  val deliver : t -> Abcast_core.Payload.t -> unit
  (** Wire this as the protocol's A-deliver upcall. *)

  val hooks : t -> Abcast_core.Protocol.app
  (** [A-checkpoint]/install hooks serializing [(state, applied)]. *)

  val factory :
    (int -> t -> unit) -> Abcast_core.Factory.app_factory
  (** [factory register] builds the per-process application factory for
      {!Abcast_core.Factory.make}: at each (re)start of process [i]
      it creates a fresh replica, calls [register i replica] (so the
      scenario can keep a handle) and returns its hooks and deliver
      upcall. *)
end
