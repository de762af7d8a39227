(** Invariant sanitizer for full-size runs.

    Attaches the {!Invariant} event predicates to a production runtime
    via the ledger sink and evaluates the end-of-run checks when the
    run finishes. This is what [Runner.options.check] / [--check] wire
    up: unlike the {!Harness} it does not rebuild the machine, does not
    control scheduling and does not stop the run on the first
    violation — it records violations and reports them at the end, so
    a checked run costs one predicate evaluation per ledger event and
    nothing else. With checking off, no sink is installed and the
    ledger emission path is a single branch — the perfcheck baselines
    are unaffected.

    The full state predicates ({!Invariant.check_state}) are evaluated
    once at the end of the run, not per event: on a 32-core machine a
    per-event directory sweep would dominate the run time. The bounded
    explorer covers per-event state checking on small configurations
    instead. *)

type t

val attach : ?keep:int -> Lk_lockiller.Runtime.t -> t
(** Install the event checks on the runtime's ledger (enabling the
    ledger if the caller has not). At most [keep] (default 8) event
    violations are retained verbatim; the rest are counted. *)

val finish : t -> Invariant.violation list
(** Evaluate the end-of-run checks and return all recorded violations,
    event-order first, then end-of-run ones. Empty means the run is
    clean. *)
