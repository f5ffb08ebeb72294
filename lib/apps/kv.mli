(** Replicated key-value store.

    A string-keyed store replicated with state-machine replication over
    atomic broadcast — the "replicated data" application of the paper's
    §5.2 (the checkpoint of the store substitutes the log of past
    updates). Commands are built with {!set_cmd}/{!del_cmd} and handed to
    [A-broadcast]; every replica applies them in delivery order. *)

type state
(** Immutable store contents. *)

module Machine : Smr.MACHINE with type state = state
(** The deterministic state machine (for plugging into {!Smr.Make}). *)

module Replica : module type of Smr.Make (Machine)
(** Ready-made SMR replica of the store. *)

type cmd =
  | Set of string * string
  | Del of string
  | Get of string
  | Incr of string
      (** Commands of the store, exposed so routers (e.g.
          {!Partitioned_kv}) can inspect a command's key without applying
          it. [Get] reads without mutating; [Incr] bumps a decimal
          counter cell — deliberately non-idempotent, so a duplicate
          apply is observable (the exactly-once tests rely on it). *)

val set_cmd : key:string -> value:string -> string
(** Command writing [value] under [key]. *)

val del_cmd : key:string -> string
(** Command removing [key]. *)

val get_cmd : key:string -> string
(** Command reading [key] (state unchanged; the value is the reply). *)

val incr_cmd : key:string -> string
(** Command incrementing the counter cell at [key]; reply is the new
    value. A non-numeric existing value restarts the count at 1. *)

val decode_cmd : string -> cmd option
(** Decode an encoded command (one tag byte, then length-prefixed
    strings — a total {!Abcast_util.Wire} codec, since commands cross
    processes inside payloads); [None] for foreign, truncated or
    trailing-garbage bytes (which {!Machine.apply} ignores). *)

val cmd_key : cmd -> string
(** The key a command touches. *)

val eval : state -> string -> state * string
(** Apply one encoded command and produce its reply string ([""] for
    [Set]/[Del]/foreign bytes, the read value for [Get], the new count
    for [Incr]). [Machine.apply] is [fst] of this. *)

val write_state : Abcast_util.Wire.writer -> state -> unit
(** Wire codec of the contents (sorted bindings — equal states encode
    identically on every replica), for service-layer checkpoints. *)

val read_state : Abcast_util.Wire.reader -> state

val get : state -> string -> string option

val bindings : state -> (string * string) list
(** Sorted contents (for convergence assertions). *)

val size : state -> int

val digest : state -> string
(** Fingerprint of the contents; equal digests across replicas witness
    convergence. *)
