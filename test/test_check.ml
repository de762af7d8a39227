(* Tests for the correctness checkers (lib/check): invariant sanitizer,
   bounded interleaving explorer, schedule fuzzer and counterexample
   shrinking — plus the wake-table/arbiter edge cases the checkers
   lean on. *)

module Types = Lk_coherence.Types
module Wake_table = Lk_lockiller.Wake_table
module Arbiter = Lk_lockiller.Arbiter
module Invariant = Lk_check.Invariant
module Scenario = Lk_check.Scenario
module Harness = Lk_check.Harness
module Explorer = Lk_check.Explorer
module Fuzzer = Lk_check.Fuzzer
module Schedule = Lk_check.Schedule
module Runner = Lk_sim.Runner

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let status_label = function
  | Harness.Completed -> "completed"
  | Harness.Violated v -> "violated: " ^ Invariant.violation_to_string v
  | Harness.Livelocked m -> "livelocked: " ^ m

(* --- Clean scenarios --------------------------------------------------- *)

let test_default_schedules_clean () =
  List.iter
    (fun (s : Scenario.t) ->
      let r = Harness.default s in
      check Alcotest.string
        (s.Scenario.name ^ " default schedule")
        "completed"
        (match r.Harness.status with
        | Harness.Completed -> "completed"
        | other -> status_label other))
    Scenario.all

let test_explorer_reaches_fixpoint_clean () =
  List.iter
    (fun (s : Scenario.t) ->
      match Explorer.explore s with
      | Explorer.Exhausted { schedules; states; _ } ->
        check_bool
          (s.Scenario.name ^ " explored more than the default schedule")
          true
          (schedules > 1 && states >= 1)
      | Explorer.Bounded _ ->
        Alcotest.failf "%s: hit the schedule bound (space too large)"
          s.Scenario.name
      | Explorer.Violation { schedule; violation; _ } ->
        Alcotest.failf "%s: false positive at %s: %s" s.Scenario.name
          (Schedule.to_string schedule)
          (Invariant.violation_to_string violation))
    Scenario.all

let test_sharded_trio_explored () =
  (* The one scenario with a multi-bank directory (2 shards on 3
     tiles): the explorer must exhaust it cleanly with the per-shard
     consistency invariant active, and the plan must be what the
     scenario declares. *)
  (match Scenario.sharded_trio.Scenario.shards with
  | Some 2 -> ()
  | _ -> Alcotest.fail "sharded-trio should declare a two-shard plan");
  check_bool "registered in Scenario.all" true
    (List.memq Scenario.sharded_trio Scenario.all);
  match Explorer.explore Scenario.sharded_trio with
  | Explorer.Exhausted { schedules; states; _ } ->
    check_bool "explored several schedules" true (schedules > 1);
    check_bool "deduplicated states" true (states >= 1)
  | Explorer.Bounded _ -> Alcotest.fail "sharded-trio hit the schedule bound"
  | Explorer.Violation { violation; _ } ->
    Alcotest.failf "sharded-trio: %s"
      (Invariant.violation_to_string violation)

let test_fuzzer_clean_across_seeds () =
  (* Several seeds over the park/wake scenarios: the random schedules
     permute wake deliveries against aborts and re-parks, covering
     wake-of-already-aborted and re-park races. *)
  List.iter
    (fun (s : Scenario.t) ->
      List.iter
        (fun seed ->
          match Fuzzer.fuzz ~runs:60 ~seed s with
          | Fuzzer.Passed _ -> ()
          | Fuzzer.Failed { schedule; violation; _ } ->
            Alcotest.failf "%s seed %d: %s at %s" s.Scenario.name seed
              (Invariant.violation_to_string violation)
              (Schedule.to_string schedule))
        [ 1; 7; 42 ])
    [ Scenario.park_wake; Scenario.trio; Scenario.commit_race ]

let test_runs_are_deterministic () =
  let a = Harness.default Scenario.trio in
  let b = Harness.default Scenario.trio in
  check_int "same cycle count" a.Harness.cycles b.Harness.cycles;
  check_int "same event count" a.Harness.events b.Harness.events;
  check Alcotest.(array (pair int int)) "same decisions" a.Harness.decisions
    b.Harness.decisions;
  check Alcotest.(array int) "same fingerprints" a.Harness.fingerprints
    b.Harness.fingerprints

(* --- Mutation self-test ------------------------------------------------ *)

let mutations =
  [
    (Types.Swmr_violation, Scenario.read_forward, "coherence");
    (Types.Lost_wakeup, Scenario.park_wake, "lost-wakeup");
    (Types.Dirty_commit, Scenario.commit_race, "dirty-commit");
  ]

let test_sanitizer_catches_mutations () =
  List.iter
    (fun (fault, (s : Scenario.t), expected_invariant) ->
      match (Harness.default ~inject_bug:fault s).Harness.status with
      | Harness.Violated v ->
        check Alcotest.string
          (Types.fault_label fault ^ " violated invariant")
          expected_invariant v.Invariant.invariant
      | other ->
        Alcotest.failf "%s on %s not caught by the sanitizer: %s"
          (Types.fault_label fault) s.Scenario.name (status_label other))
    mutations

let test_explorer_catches_mutations () =
  List.iter
    (fun (fault, (s : Scenario.t), expected_invariant) ->
      match Explorer.explore ~inject_bug:fault s with
      | Explorer.Violation { schedule; violation; _ } ->
        check Alcotest.string
          (Types.fault_label fault ^ " invariant")
          expected_invariant violation.Invariant.invariant;
        (* The shrunk counterexample must reproduce on replay. *)
        (match
           (Harness.replay ~inject_bug:fault ~schedule s).Harness.status
         with
        | Harness.Violated v ->
          check Alcotest.string "replay reproduces the invariant"
            violation.Invariant.invariant v.Invariant.invariant
        | other ->
          Alcotest.failf "%s: counterexample does not replay: %s"
            (Types.fault_label fault) (status_label other));
        (* And the un-mutated scenario must not fail on that schedule. *)
        (match (Harness.replay ~schedule s).Harness.status with
        | Harness.Completed -> ()
        | other ->
          Alcotest.failf "%s: schedule fails without the mutation: %s"
            (Types.fault_label fault) (status_label other))
      | Explorer.Exhausted _ | Explorer.Bounded _ ->
        Alcotest.failf "%s on %s not caught by the explorer"
          (Types.fault_label fault) s.Scenario.name)
    mutations

let test_mutation_detection_is_deterministic () =
  List.iter
    (fun (fault, (s : Scenario.t), _) ->
      let run () =
        match Explorer.explore ~inject_bug:fault s with
        | Explorer.Violation { schedule; violation; schedules } ->
          (schedule, violation.Invariant.invariant, schedules)
        | _ -> Alcotest.failf "%s escaped" (Types.fault_label fault)
      in
      let s1, i1, n1 = run () in
      let s2, i2, n2 = run () in
      check Alcotest.(array int) "same minimal schedule" s1 s2;
      check Alcotest.string "same invariant" i1 i2;
      check_int "same search effort" n1 n2)
    mutations

(* --- Shrinking --------------------------------------------------------- *)

let test_shrink_minimises () =
  (* Failure model: fails iff the schedule picks choice 2 at index 3.
     Shrinking must strip everything else. *)
  let still_fails s = Array.length s > 3 && s.(3) = 2 in
  let shrunk = Schedule.shrink ~still_fails [| 1; 0; 2; 2; 1; 1; 0; 2 |] in
  check Alcotest.(array int) "minimal" [| 0; 0; 0; 2 |] shrunk;
  check_bool "still fails" true (still_fails shrunk)

let test_shrink_keeps_prefix_failures () =
  (* Fails whenever any nonzero choice is present: minimal is one. *)
  let still_fails s = Array.exists (fun c -> c <> 0) s in
  let shrunk = Schedule.shrink ~still_fails [| 0; 1; 0; 1; 1 |] in
  check_int "single nonzero decision" 1
    (Array.length (Array.of_list (List.filter (fun c -> c <> 0) (Array.to_list shrunk))));
  check_bool "still fails" true (still_fails shrunk)

let test_strip_trailing_zeros () =
  check Alcotest.(array int) "stripped" [| 0; 2 |]
    (Schedule.strip_trailing_zeros [| 0; 2; 0; 0 |]);
  check Alcotest.(array int) "empty" [||]
    (Schedule.strip_trailing_zeros [| 0; 0 |])

(* --- Sanitizer on full-size runs --------------------------------------- *)

let test_runner_check_option () =
  let sysconf = Lk_lockiller.Sysconf.lockiller in
  let workload = Option.get (Lk_stamp.Suite.find "intruder") in
  let r =
    Runner.run
      ~options:{ Runner.default_options with Runner.check = true; scale = 0.1 }
      ~sysconf ~workload ~threads:4 ()
  in
  check_bool "checked run completes" true (r.Runner.cycles > 0)

let test_runner_check_default_off () =
  check_bool "off by default" false Runner.default_options.Runner.check

(* --- Wake table edge cases --------------------------------------------- *)

let test_wake_table_full_drain () =
  (* Capacity edge: every other core of a maximal machine recorded
     against one rejector, drained in one sweep, ascending. *)
  let cores = 62 in
  let w = Wake_table.create ~cores in
  for c = cores - 1 downto 0 do
    Wake_table.record w ~rejector:3 ~waiter:c
  done;
  check_int "self excluded" (cores - 1) (Wake_table.pending w);
  let drained = Wake_table.drain w ~rejector:3 in
  check Alcotest.(list int) "ascending, no self"
    (List.filter (fun c -> c <> 3) (List.init cores Fun.id))
    drained;
  check_int "empty" 0 (Wake_table.pending w);
  check Alcotest.(list int) "second drain empty" []
    (Wake_table.drain w ~rejector:3)

let test_wake_table_core_bounds () =
  let w = Wake_table.create ~cores:62 in
  Wake_table.record w ~rejector:0 ~waiter:61;
  check Alcotest.(list int) "highest core id" [ 61 ]
    (Wake_table.waiters w ~rejector:0);
  Alcotest.check_raises "core 1024 rejected"
    (Invalid_argument "Coreset: core id 1024 out of range") (fun () ->
      Wake_table.record w ~rejector:0 ~waiter:1024);
  Alcotest.check_raises "no zero-core table"
    (Invalid_argument "Wake_table.create: cores must be positive") (fun () ->
      ignore (Wake_table.create ~cores:0))

let test_wake_table_rerecord_after_drain () =
  (* A waiter that parks again after being woken (its retry lost again)
     must be recordable against the same rejector. *)
  let w = Wake_table.create ~cores:4 in
  Wake_table.record w ~rejector:1 ~waiter:2;
  check Alcotest.(list int) "first" [ 2 ] (Wake_table.drain w ~rejector:1);
  Wake_table.record w ~rejector:1 ~waiter:2;
  Wake_table.record w ~rejector:1 ~waiter:2;
  check_int "re-record is idempotent" 1 (Wake_table.pending w);
  check Alcotest.(list int) "second" [ 2 ] (Wake_table.drain w ~rejector:1)

let test_wake_table_independent_rejectors () =
  let w = Wake_table.create ~cores:4 in
  Wake_table.record w ~rejector:0 ~waiter:2;
  Wake_table.record w ~rejector:1 ~waiter:2;
  check Alcotest.(list int) "drain 0" [ 2 ] (Wake_table.drain w ~rejector:0);
  check Alcotest.(list int) "rejector 1 untouched" [ 2 ]
    (Wake_table.waiters w ~rejector:1)

(* --- Arbiter edge cases ------------------------------------------------ *)

let test_arbiter_holder_and_counters () =
  let a = Arbiter.create () in
  check (Alcotest.option Alcotest.int) "free" None (Arbiter.holder a);
  check_bool "grant" true (Arbiter.try_acquire a 5);
  check (Alcotest.option Alcotest.int) "held" (Some 5) (Arbiter.holder a);
  check_bool "denied" false (Arbiter.try_acquire a 6);
  check_bool "reacquire" true (Arbiter.try_acquire a 5);
  check_int "grants (reacquire is not a fresh grant)" 1 (Arbiter.grants a);
  check_int "denials" 1 (Arbiter.denials a);
  Arbiter.release a 5;
  check (Alcotest.option Alcotest.int) "free again" None (Arbiter.holder a)

let test_arbiter_release_requires_holder () =
  let a = Arbiter.create () in
  ignore (Arbiter.try_acquire a 1);
  Alcotest.check_raises "non-holder release"
    (Invalid_argument "Arbiter.release: caller does not hold the authorization")
    (fun () -> Arbiter.release a 2);
  check (Alcotest.option Alcotest.int) "still held" (Some 1)
    (Arbiter.holder a);
  Arbiter.release a 1;
  Alcotest.check_raises "double release"
    (Invalid_argument "Arbiter.release: caller does not hold the authorization")
    (fun () -> Arbiter.release a 1)

(* --- QCheck: fuzz arbitrary short schedules ----------------------------- *)

let prop_random_schedules_never_violate =
  QCheck.Test.make ~name:"replaying any short schedule stays clean" ~count:60
    QCheck.(list_of_size (Gen.int_bound 12) (int_bound 3))
    (fun choices ->
      let schedule = Array.of_list choices in
      match (Harness.replay ~schedule Scenario.incr_incr).Harness.status with
      | Harness.Completed -> true
      | Harness.Violated _ | Harness.Livelocked _ -> false)

let () =
  Alcotest.run "check"
    [
      ( "clean",
        [
          Alcotest.test_case "default schedules complete" `Quick
            test_default_schedules_clean;
          Alcotest.test_case "explorer reaches a clean fixpoint" `Quick
            test_explorer_reaches_fixpoint_clean;
          Alcotest.test_case "sharded trio explored" `Quick
            test_sharded_trio_explored;
          Alcotest.test_case "fuzzer clean across seeds" `Quick
            test_fuzzer_clean_across_seeds;
          Alcotest.test_case "controlled runs are deterministic" `Quick
            test_runs_are_deterministic;
          QCheck_alcotest.to_alcotest prop_random_schedules_never_violate;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "sanitizer catches every mutation" `Quick
            test_sanitizer_catches_mutations;
          Alcotest.test_case "explorer catches every mutation" `Quick
            test_explorer_catches_mutations;
          Alcotest.test_case "detection is deterministic" `Quick
            test_mutation_detection_is_deterministic;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "shrink minimises" `Quick test_shrink_minimises;
          Alcotest.test_case "shrink keeps prefix failures" `Quick
            test_shrink_keeps_prefix_failures;
          Alcotest.test_case "strip trailing zeros" `Quick
            test_strip_trailing_zeros;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "Runner --check passes on a real run" `Quick
            test_runner_check_option;
          Alcotest.test_case "checking is off by default" `Quick
            test_runner_check_default_off;
        ] );
      ( "wake-table",
        [
          Alcotest.test_case "full-machine drain" `Quick
            test_wake_table_full_drain;
          Alcotest.test_case "core id bounds" `Quick test_wake_table_core_bounds;
          Alcotest.test_case "re-record after drain" `Quick
            test_wake_table_rerecord_after_drain;
          Alcotest.test_case "independent rejectors" `Quick
            test_wake_table_independent_rejectors;
        ] );
      ( "arbiter",
        [
          Alcotest.test_case "holder and counters" `Quick
            test_arbiter_holder_and_counters;
          Alcotest.test_case "release requires holder" `Quick
            test_arbiter_release_requires_holder;
        ] );
    ]
