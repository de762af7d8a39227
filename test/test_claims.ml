(* The paper's claims, as orderings and ratios above 1 (never exact
   values), on the Table I machine (32 cores, 4x8 mesh) at scale 0.1.
   EXPERIMENTS.md marks each as reproduced; the golden digests catch
   any change to a result, these say which changes would still be a
   faithful reproduction. A change that alters results on purpose may
   update the digests, but must leave this test passing unchanged.

   - Abstract: LockillerTM beats best-effort HTM (Baseline) and
     LosaTM-SAFU on average over every workload and thread count.
   - Abstract: with an 8 KB L1 at 32 threads on the high-contention
     workloads the maximum speedup over each exceeds the average.
   - Fig 9: at 32 threads, HTMLock (RWIL) cuts genome's waitlock share
     and raises its commit rate against RWI.
   - Fig 10: at 2 threads, HTMLock leaves LockillerTM-RWIL and
     LockillerTM with no mutex aborts on any workload (a structural
     zero, not a value).
   - Fig 10: at 2 threads on labyrinth, switchingMode leaves
     LockillerTM a smaller share of capacity ('of') aborts than RWIL.
   - Fig 11: at 2 threads on labyrinth, switchingMode gives LockillerTM
     a nonzero switchLock share, a higher commit rate than RWIL and a
     lower aborted share.
   - Fig 12: Baseline has the lowest geomean speedup over CGL at every
     thread count, and at 16 and 32 threads every HTMLock system (RWL,
     RWIL, LockillerTM) beats every system without HTMLock. No finer
     order is asserted: near-ties such as RWIL and LockillerTM at 32
     threads are not a claim of the paper.
   - Fig 13: under both the small and the large cache, at every thread
     count, LockillerTM beats Baseline and Baseline beats CGL (geomean
     speedup over CGL across the suite). *)

module Experiments = Lk_sim.Experiments
module Config = Lk_sim.Config
module Metrics = Lk_sim.Metrics
module Runner = Lk_sim.Runner
module Sysconf = Lk_lockiller.Sysconf
module Suite = Lk_stamp.Suite
module Accounting = Lk_cpu.Accounting
module Reason = Lk_htm.Reason

(* One context, so Baseline, LosaTM-SAFU and LockillerTM runs shared by
   several claims are simulated once. *)
let ctx = lazy (Experiments.make_context ~scale:0.1 ())

let speedup ~cache ~of_ ~vs ~threads w =
  let ctx = Lazy.force ctx in
  let a = Experiments.result ctx ~cache ~sysconf:of_ ~workload:w ~threads () in
  let b = Experiments.result ctx ~cache ~sysconf:vs ~workload:w ~threads () in
  Metrics.speedup ~baseline_cycles:b.Runner.cycles ~cycles:a.Runner.cycles

(* Geomean speedup of LockillerTM over [vs] across the paper's suite and
   every thread count, typical cache. *)
let average vs =
  Metrics.geomean
    (List.concat_map
       (fun threads ->
         List.map
           (speedup ~cache:Config.Typical ~of_:Sysconf.lockiller ~vs ~threads)
           Suite.all)
       (Experiments.thread_counts (Lazy.force ctx)))

(* Maximum speedup of LockillerTM over [vs] on the high-contention
   workloads, 8 KB L1, 32 threads. *)
let extreme vs =
  Option.get
    (Metrics.max_of
       (List.map
          (speedup ~cache:Config.Small ~of_:Sysconf.lockiller ~vs ~threads:32)
          Suite.high_contention))

let above_one what v =
  if not (v > 1.0) then Alcotest.failf "%s: %.3f is not above 1" what v

let test_average () =
  above_one "average speedup vs Baseline" (average Sysconf.baseline);
  above_one "average speedup vs LosaTM-SAFU" (average Sysconf.losa_safu)

let test_extreme () =
  List.iter
    (fun (name, vs) ->
      let avg = average vs and max = extreme vs in
      if not (max > avg) then
        Alcotest.failf
          "max speedup vs %s (%.3f) does not exceed the average (%.3f)" name
          max avg)
    [ ("Baseline", Sysconf.baseline); ("LosaTM-SAFU", Sysconf.losa_safu) ]

(* The share of a result's execution time in one breakdown category. *)
let share (r : Runner.result) cat =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Runner.breakdown in
  float_of_int (List.assoc cat r.Runner.breakdown) /. float_of_int total

let test_htmlock_genome () =
  let genome = Option.get (Suite.find "genome") in
  let run sysconf =
    Experiments.result (Lazy.force ctx) ~sysconf ~workload:genome ~threads:32 ()
  in
  let waitlock_share r = share r Accounting.Wait_lock in
  let rwi = run Sysconf.lockiller_rwi and rwil = run Sysconf.lockiller_rwil in
  above_one "genome waitlock share, RWI over RWIL"
    (waitlock_share rwi /. waitlock_share rwil);
  above_one "genome commit rate, RWIL over RWI"
    (rwil.Runner.commit_rate /. rwi.Runner.commit_rate)

let test_no_mutex_aborts () =
  List.iter
    (fun sysconf ->
      List.iter
        (fun w ->
          let r =
            Experiments.result (Lazy.force ctx) ~sysconf ~workload:w
              ~threads:2 ()
          in
          let mutex =
            Option.value ~default:0
              (List.assoc_opt Reason.Conflict_mutex r.Runner.abort_mix)
          in
          if mutex <> 0 then
            Alcotest.failf "%s on %s at 2 threads: %d mutex aborts"
              r.Runner.system w.Lk_stamp.Workload.name mutex)
        Suite.all)
    [ Sysconf.lockiller_rwil; Sysconf.lockiller ]

let test_switching_labyrinth () =
  let labyrinth = Option.get (Suite.find "labyrinth") in
  let run sysconf =
    Experiments.result (Lazy.force ctx) ~sysconf ~workload:labyrinth ~threads:2
      ()
  in
  let rwil = run Sysconf.lockiller_rwil and lk = run Sysconf.lockiller in
  if not (share lk Accounting.Switch_lock > 0.0) then
    Alcotest.fail "labyrinth: LockillerTM spends no time in switchLock";
  above_one "labyrinth commit rate, LockillerTM over RWIL"
    (lk.Runner.commit_rate /. rwil.Runner.commit_rate);
  above_one "labyrinth aborted share, RWIL over LockillerTM"
    (share rwil Accounting.Aborted /. share lk Accounting.Aborted)

let test_capacity_share_labyrinth () =
  let labyrinth = Option.get (Suite.find "labyrinth") in
  let of_share sysconf =
    Runner.abort_fraction
      (Experiments.result (Lazy.force ctx) ~sysconf ~workload:labyrinth
         ~threads:2 ())
      Reason.Capacity
  in
  let rwil = of_share Sysconf.lockiller_rwil
  and lk = of_share Sysconf.lockiller in
  if not (lk < rwil) then
    Alcotest.failf
      "labyrinth 'of' share: LockillerTM %.3f is not below RWIL %.3f" lk rwil

(* Geomean speedup over CGL across the suite, typical cache. *)
let mean_vs_cgl sysconf threads =
  Metrics.geomean
    (List.map
       (fun w ->
         Experiments.speedup_vs_cgl (Lazy.force ctx) ~sysconf ~workload:w
           ~threads ())
       Suite.all)

let test_average_speedups () =
  let systems =
    Sysconf.
      [
        baseline;
        losa_safu;
        lockiller_rai;
        lockiller_rri;
        lockiller_rwi;
        lockiller_rwl;
        lockiller_rwil;
        lockiller;
      ]
  in
  List.iter
    (fun threads ->
      let base = mean_vs_cgl Sysconf.baseline threads in
      List.iter
        (fun (s : Sysconf.t) ->
          if s.Sysconf.name <> Sysconf.baseline.Sysconf.name then
            above_one
              (Printf.sprintf "%s over Baseline, %d threads" s.Sysconf.name
                 threads)
              (mean_vs_cgl s threads /. base))
        systems;
      if threads >= 16 then begin
        let with_lock, without =
          List.partition (fun (s : Sysconf.t) -> s.Sysconf.htmlock) systems
        in
        List.iter
          (fun (l : Sysconf.t) ->
            List.iter
              (fun (o : Sysconf.t) ->
                above_one
                  (Printf.sprintf "%s over %s, %d threads" l.Sysconf.name
                     o.Sysconf.name threads)
                  (mean_vs_cgl l threads /. mean_vs_cgl o threads))
              without)
          with_lock
      end)
    (Experiments.thread_counts (Lazy.force ctx))

let test_cache_sensitivity () =
  let ctx = Lazy.force ctx in
  let vs_cgl cache sysconf threads =
    Metrics.geomean
      (List.map
         (fun w ->
           Experiments.speedup_vs_cgl ctx ~cache ~sysconf ~workload:w ~threads
             ())
         Suite.all)
  in
  List.iter
    (fun cache ->
      List.iter
        (fun threads ->
          let what =
            Printf.sprintf "%s cache, %d threads"
              (Config.cache_profile_name cache) threads
          in
          let lk = vs_cgl cache Sysconf.lockiller threads
          and base = vs_cgl cache Sysconf.baseline threads in
          above_one ("LockillerTM over Baseline, " ^ what) (lk /. base);
          above_one ("Baseline over CGL, " ^ what) base)
        (Experiments.thread_counts ctx))
    [ Config.Small; Config.Large ]

let () =
  Alcotest.run "claims"
    [
      ( "paper",
        [
          Alcotest.test_case "LockillerTM wins on average" `Quick test_average;
          Alcotest.test_case "extreme maxima exceed the averages" `Quick
            test_extreme;
          Alcotest.test_case "HTMLock on genome at 32 threads" `Quick
            test_htmlock_genome;
          Alcotest.test_case "no mutex aborts under HTMLock" `Quick
            test_no_mutex_aborts;
          Alcotest.test_case "switchingMode on labyrinth" `Quick
            test_switching_labyrinth;
          Alcotest.test_case "switchingMode cuts labyrinth's 'of' share"
            `Quick test_capacity_share_labyrinth;
          Alcotest.test_case "average speedups over CGL" `Quick
            test_average_speedups;
          Alcotest.test_case "cache sensitivity" `Quick test_cache_sensitivity;
        ] );
    ]
