(** Crash-stop baseline (Chandra–Toueg-style atomic broadcast).

    The paper notes (§5.6, §7) that when crashes are definitive its
    protocol reduces to the Chandra–Toueg transformation — same
    round-per-batch structure, no logging needed. This baseline makes that
    concrete for experiment E7: it runs the {e same} basic protocol code
    but with every stable-storage write redirected to a discarded volatile
    store, so it performs zero (accounted) log operations. In crash-free
    runs its message pattern and latency are identical to the basic
    protocol's; the entire difference is the logging the crash-recovery
    model requires.

    Processes of this stack must never be crashed: with no durable state
    there is nothing to recover. *)

val stack :
  ?consensus:Abcast_core.Factory.consensus -> unit -> Abcast_core.Proto.t
(** A packaged crash-stop stack named ["ct-stop/<consensus>"]. *)
