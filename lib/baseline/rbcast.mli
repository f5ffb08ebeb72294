(** Reliable broadcast for the crash-stop model.

    The classic eager-relay algorithm Chandra–Toueg's atomic broadcast
    builds on: on first reception of a message, forward it to everyone,
    then deliver. With no process recovery and reliable channels this
    guarantees that if any correct process delivers, all correct processes
    deliver. It is {e not} correct under crash-recovery (a recovering
    process has forgotten what it relayed and delivered) — which is
    precisely why the paper replaces it with gossip; the test suite
    demonstrates the failure. *)

type msg

type t

val create :
  msg Abcast_sim.Engine.io -> deliver:(Abcast_core.Payload.t -> unit) -> t

val broadcast : t -> string -> Abcast_core.Payload.id
(** R-broadcast a payload (delivered locally via the relay path too). *)

val handle : t -> src:int -> msg -> unit

val delivered_count : t -> int
