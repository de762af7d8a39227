(** Bounded exhaustive exploration of event interleavings.

    Stateless (replay-based) model checking in the Murphi/CHESS
    tradition: every run re-executes the scenario from scratch under a
    decision prefix, and depth-first search enumerates all alternative
    choices at every decision point reached — a decision point being
    any moment where two or more pending events are runnable in the
    same cycle. Choice 0 is the production order, so the first run of
    the search is exactly the default schedule.

    Termination comes from the scenarios being finite programs (every
    run makes finitely many decisions) plus the [max_schedules] bound.
    State fingerprints (a canonical hash, in {!Harness}) prune branches: once a
    decision point's fingerprint has been seen, all its continuations
    are already covered from the first visit. The fingerprint hashes
    the architectural state and the pending-event {e count} but not the
    pending thunks themselves (they are opaque closures), so pruning is
    heuristic — see docs/CHECKING.md for why this is a sound trade for
    a checker (it can only make the search miss schedules, never report
    false violations, and every reported violation carries a replayable
    schedule). *)

type verdict =
  | Exhausted of { schedules : int; states : int; max_decisions : int }
      (** Fixpoint: every reachable interleaving (modulo fingerprint
          pruning) was executed and no check failed. *)
  | Violation of {
      schedule : Schedule.t;  (** Shrunk, replayable counterexample. *)
      violation : Invariant.violation;
      schedules : int;  (** Runs executed before the first failure. *)
    }
  | Bounded of { schedules : int; states : int }
      (** [max_schedules] reached without a violation. *)

val explore :
  ?max_schedules:int ->
  ?cycle_limit:int ->
  ?inject_bug:Lk_coherence.Types.injected_fault ->
  Scenario.t ->
  verdict
(** Search the scenario's schedule space (default bound: 20_000 runs).
    Deterministic: same scenario, same verdict. *)

val shrink :
  ?cycle_limit:int ->
  ?inject_bug:Lk_coherence.Types.injected_fault ->
  Scenario.t ->
  violation:Invariant.violation ->
  Schedule.t ->
  Schedule.t
(** Minimise a failing schedule for this scenario, preserving the
    violated invariant (by name). *)

val pp_verdict : Format.formatter -> verdict -> unit
