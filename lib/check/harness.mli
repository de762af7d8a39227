(** Controlled execution of a {!Scenario} under an explicit schedule.

    The simulator's event queue fires pending events in (time,
    insertion order); whenever two or more events are runnable at the
    same cycle, the real hardware provides no ordering guarantee, so
    any permutation is a legal execution. The harness installs a
    {!Lk_engine.Sim.set_chooser} hook and delegates each such decision
    to a caller-supplied [choose] function — the explorer enumerates
    the choices, the fuzzer randomises them, and [replay] fixes them to
    a recorded schedule.

    Every run is built from scratch on a tiny machine (1×N mesh,
    1 KB 2-way L1s, small latencies) with the serializability oracle
    and the event ledger enabled; invariant checks run at every event
    boundary ([check_states]), at every ledger emission, and at the end
    of the run. Runs are fully deterministic functions of the scenario
    and the schedule. *)

exception Violation_found of Invariant.violation
(** Raised from inside the simulation loop by the per-event checks;
    callers of {!run} never see it (it is converted to a status). *)

type status =
  | Completed  (** All threads finished; every check passed. *)
  | Violated of Invariant.violation
  | Livelocked of string
      (** Threads still unfinished at the cycle limit, or the
          simulator's quiescence watchdog gave up. *)

type run = {
  status : status;
  decisions : (int * int) array;
      (** Per decision point, the (choice, arity) taken: [choice] is
          the insertion-order rank fired among [arity] same-cycle
          runnable events. *)
  fingerprints : int array;
      (** State fingerprint at each decision point, taken {e before}
          the choice fired. Same length as [decisions]. *)
  cycles : int;
  events : int;
}

val run :
  ?check_states:bool ->
  ?cycle_limit:int ->
  ?inject_bug:Lk_coherence.Types.injected_fault ->
  choose:(index:int -> arity:int -> int) ->
  Scenario.t ->
  run
(** Execute the scenario once. [choose ~index ~arity] is called at the
    [index]-th decision point (0-based) with [arity >= 2] runnable
    events and returns the insertion rank to fire; out-of-range returns
    are clamped to 0. [check_states] (default true) evaluates the state
    predicates after every event — disable it only to time raw
    exploration. *)

val replay :
  ?check_states:bool ->
  ?cycle_limit:int ->
  ?inject_bug:Lk_coherence.Types.injected_fault ->
  schedule:int array ->
  Scenario.t ->
  run
(** Run with decisions fixed to [schedule]; beyond its end (or above
    the arity) the default choice 0 — oldest runnable event first,
    i.e. the production schedule — is taken. *)

val default :
  ?check_states:bool ->
  ?cycle_limit:int ->
  ?inject_bug:Lk_coherence.Types.injected_fault ->
  Scenario.t ->
  run
(** [replay ~schedule:[||]]: the exact schedule a production run uses. *)

val choices : run -> int array
(** The schedule this run took ([fst] of each decision). *)
