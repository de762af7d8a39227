(* Whole-stack fuzzing: random workload profiles run under random
   Table II systems on a small machine, with every correctness layer
   armed — protocol invariants (SWMR, directory exactness, inclusivity),
   value conservation of the hot counters, the serializability oracle,
   and liveness (every thread finishes without watchdog rescues).

   This is the test that hunts for cross-mechanism interactions the
   targeted tests miss (e.g. a switchingMode grant racing a wake-up
   during an LLC back-invalidation). *)

module Workload = Lk_stamp.Workload
module Sysconf = Lk_lockiller.Sysconf
module Runner = Lk_sim.Runner
module Config = Lk_sim.Config
module Policy = Lk_htm.Policy

let machines = [ 2; 4; 8 ]

let profile_gen =
  QCheck.Gen.(
    let* hot_lines = 1 -- 32 in
    let* shared = 32 -- 512 in
    let* r_lo = 0 -- 8 in
    let* r_hi = r_lo -- 40 in
    let* w_lo = 0 -- 4 in
    let* w_hi = w_lo -- 12 in
    let* hot_fraction = float_bound_inclusive 1.0 in
    let* zipf = float_bound_inclusive 1.5 in
    let* fault = float_bound_inclusive 0.6 in
    let* compute = 0 -- 4 in
    let* txs = 2 -- 10 in
    return
      {
        Workload.name = "fuzz";
        txs_per_thread = txs;
        reads_per_tx = (r_lo, r_hi);
        writes_per_tx = (w_lo, w_hi);
        hot_lines;
        hot_fraction;
        zipf_skew = zipf;
        shared_lines = shared;
        private_lines = 8;
        compute_per_op = compute;
        pre_compute = (0, 20);
        post_compute = (0, 20);
        fault_prob = fault;
    barrier_every = None;
      })

let scenario_gen =
  QCheck.Gen.(
    let* profile = profile_gen in
    let* sys_i = 0 -- (List.length Sysconf.all - 1) in
    let* machine_i = 0 -- (List.length machines - 1) in
    let* seed = 1 -- 10_000 in
    let* tiny_l1 = bool in
    return (profile, List.nth Sysconf.all sys_i, List.nth machines machine_i,
            seed, tiny_l1))

let scenario_print (profile, sysconf, cores, seed, tiny_l1) =
  Format.asprintf "%a | %s | %d cores | seed %d | tiny_l1 %b" Workload.pp
    profile sysconf.Sysconf.name cores seed tiny_l1

let run_scenario (profile, sysconf, cores, seed, tiny_l1) =
  match Workload.validate profile with
  | Error _ -> QCheck.assume_fail ()
  | Ok () ->
    let machine = Config.machine ~cores () in
    (* Optionally shrink the L1 drastically so overflow paths (spills,
       switchingMode, back-invalidations) fire constantly. *)
    let machine =
      if tiny_l1 then
        {
          machine with
          Config.protocol =
            {
              machine.Config.protocol with
              Lk_coherence.Protocol.l1_size = 8 * 64 * 2;
              l1_ways = 2;
              llc_size = cores * 32 * 64 * 4;
              llc_ways = 4;
            };
        }
      else machine
    in
    let threads = cores in
    (* Runner.run itself asserts: all threads finish, protocol
       invariants hold, conservation holds, the oracle verifies. *)
    let r =
      Runner.run
        ~options:{ Runner.default_options with seed; machine }
        ~sysconf ~workload:profile ~threads ()
    in
    r.Runner.cycles > 0 && r.Runner.watchdog_rescues = 0

let fuzz =
  QCheck.Test.make ~name:"random workloads x systems: all safety nets hold"
    ~count:120
    (QCheck.make ~print:scenario_print scenario_gen)
    run_scenario

(* A focused variant: maximum-stress settings (every knob that creates
   races at once) with the full LockillerTM system. *)
let stress_lockiller =
  QCheck.Test.make ~name:"lockiller under overflow+fault+contention stress"
    ~count:40
    QCheck.(make Gen.(pair (1 -- 10_000) (2 -- 6)))
    (fun (seed, txs) ->
      let profile =
        {
          Workload.name = "stress";
          txs_per_thread = txs;
          reads_per_tx = (10, 40);
          writes_per_tx = (4, 12);
          hot_lines = 4;
          hot_fraction = 0.7;
          zipf_skew = 0.9;
          shared_lines = 256;
          private_lines = 8;
          compute_per_op = 1;
          pre_compute = (0, 10);
          post_compute = (0, 10);
          fault_prob = 0.3;
    barrier_every = None;
        }
      in
      let machine = Config.machine ~cores:8 () in
      let machine =
        {
          machine with
          Config.protocol =
            {
              machine.Config.protocol with
              Lk_coherence.Protocol.l1_size = 8 * 64 * 2;
              l1_ways = 2;
            };
        }
      in
      List.for_all
        (fun sysconf ->
          let r =
            Runner.run
              ~options:{ Runner.default_options with seed; machine }
              ~sysconf ~workload:profile ~threads:8 ()
          in
          r.Runner.cycles > 0)
        [ Sysconf.lockiller_rwl; Sysconf.lockiller_rwil; Sysconf.lockiller ])

(* Repeat-run determinism: a random scenario simulated twice in one
   process must produce byte-for-byte identical result JSON — every
   cycle count, abort reason and network statistic. No state may leak
   from one run into the next; this is the whole-stack guarantee behind
   the result cache. *)
let repeat_run_determinism =
  QCheck.Test.make ~name:"a repeat run is byte-identical" ~count:10
    (QCheck.make ~print:scenario_print scenario_gen)
    (fun (profile, sysconf, cores, seed, _tiny_l1) ->
      match Workload.validate profile with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
        let run () =
          let options =
            {
              Runner.default_options with
              Runner.seed;
              machine = Config.machine ~cores ();
            }
          in
          Runner.result_to_json
            (Runner.run ~options ~sysconf ~workload:profile ~threads:cores ())
        in
        String.equal (run ()) (run ()))

(* Retry budgets of zero and one push every transaction through the
   fallback machinery immediately — a corner the normal suite rarely
   visits. *)
let tiny_retry_budgets =
  QCheck.Test.make ~name:"tiny retry budgets still correct" ~count:30
    QCheck.(make Gen.(pair (0 -- 1) (1 -- 10_000)))
    (fun (max_retries, seed) ->
      let profile =
        {
          Workload.name = "tiny-retry";
          txs_per_thread = 5;
          reads_per_tx = (2, 8);
          writes_per_tx = (1, 4);
          hot_lines = 4;
          hot_fraction = 0.8;
          zipf_skew = 0.5;
          shared_lines = 64;
          private_lines = 8;
          compute_per_op = 1;
          pre_compute = (0, 10);
          post_compute = (0, 10);
          fault_prob = 0.2;
    barrier_every = None;
        }
      in
      List.for_all
        (fun base ->
          let sysconf =
            { base with
              Sysconf.retry =
                { Policy.default_retry with Policy.max_retries } }
          in
          let r =
            Runner.run
              ~options:
                {
                  Runner.default_options with
                  seed;
                  machine = Config.machine ~cores:4 ();
                }
              ~sysconf ~workload:profile ~threads:4 ()
          in
          r.Runner.cycles > 0)
        [ Sysconf.baseline; Sysconf.lockiller_rwi; Sysconf.lockiller ])

let () =
  Alcotest.run "fuzz"
    [
      ( "whole-stack",
        [
          QCheck_alcotest.to_alcotest fuzz;
          QCheck_alcotest.to_alcotest stress_lockiller;
          QCheck_alcotest.to_alcotest repeat_run_determinism;
          QCheck_alcotest.to_alcotest tiny_retry_budgets;
        ] );
    ]
