(** Open-loop load generator for the service layer.

    Poisson arrivals at a target aggregate rate over thousands of client
    sessions (each session strictly sequential, so the exactly-once
    [(session, seq)] discipline holds), three op classes — writes
    ([Incr] on the client's own key), linearizable reads and stale
    reads — with per-class latency histograms, retry-on-deadline with
    the {e same} (session, seq), and a settle-and-audit of exactly-once
    built on the non-idempotence of [Incr]. *)

type config = {
  clients : int;
  rate : float;  (** target aggregate arrivals per second *)
  duration : float;  (** seconds of open-loop issue *)
  write_pct : int;  (** % of ops that are writes *)
  lin_pct : int;  (** % that are linearizable reads; rest stale *)
  timeout : float;  (** per-attempt retry deadline, seconds *)
  seed : int;
}

type report = {
  wall : float;
  issued : int;
  completed : int;
  retries : int;
  shed : int;  (** arrivals dropped because every client was busy *)
  not_ready : int;  (** read-index attempts bounced for lack of a lease *)
  failed : int;  (** ops still incomplete when the drain grace expired *)
  write : Abcast_util.Histogram.summary;  (** latencies, µs *)
  lin : Abcast_util.Histogram.summary;
  stale : Abcast_util.Histogram.summary;
  writes_issued : int array;  (** per client *)
  writes_acked : int array;
}

val run : ?history:Abcast_sim.History.t -> Service.t -> config -> report
(** Drive the service from the calling thread for [duration] seconds,
    then drain in-flight ops (retrying) for up to [3 * timeout + 1]
    more. The service must be {!Service.start}ed; in read-index mode
    load starts once the claimant holds every group's lease.
    Safe to run while the harness crashes/recovers nodes.

    With [history], every completed op is appended to the recorder
    (session, kind, key, invocation/response wall-clock, result value) —
    the client-side half of the [doctor --audit] evidence. The caller
    owns the recorder ({!Abcast_sim.History.close} it after the run).

    @raise Failure if in read-index mode the claimant does not hold
    every group's lease within 5 s. *)

val audit : Service.t -> report -> string list
(** Settle the cluster after a {!run} and audit exactly-once: calls
    {!Service.stop_maintenance}, waits up to 30 s until the live
    replicas' digests agree and stay equal for 0.3 s, then checks every
    client's counter cell at one live replica against the run,
    [acked <= value <= issued]. Returns one violation line per breach,
    or a single line if the replicas did not converge; [[]] when
    exactly-once held. *)
