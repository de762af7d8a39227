(* Abort breakdowns from the event ledger. Runs one contended workload
   under three Table II systems with the transaction-event ledger
   attached, then recomputes each run's abort mix from the recorded
   event stream (Lk_sim.Profile.of_ledger) — the same counts the CLI's
   --abort-breakdown flag prints — and cross-checks it against
   the runner's aggregate counters. Also writes a Perfetto timeline
   for the last run.

     dune exec examples/abort_breakdown.exe *)

module Runner = Lockiller.Sim.Runner
module Config = Lockiller.Sim.Config
module Tracing = Lockiller.Sim.Tracing
module Profile = Lockiller.Sim.Profile
module Report = Lockiller.Sim.Report
module Suite = Lockiller.Stamp.Suite
module Sysconf = Lockiller.Mechanisms.Sysconf
module Runtime = Lockiller.Mechanisms.Runtime
module Reason = Lockiller.Htm.Reason

let workload = "intruder"
let threads = 8

let run_with_ledger sysconf =
  let w = Option.get (Suite.find workload) in
  let ledger = ref None in
  let r =
    Runner.run
      ~options:
        {
          Runner.default_options with
          scale = 0.2;
          on_runtime = (fun rt -> ledger := Some (Runtime.enable_ledger rt));
        }
      ~sysconf ~workload:w ~threads ()
  in
  (r, Option.get !ledger)

let () =
  Printf.printf
    "Abort breakdowns: %s, %d threads — the ledger's per-reason view of\n\
     what the recovery mechanisms change.\n\n" workload threads;
  let last = ref None in
  List.iter
    (fun sysconf ->
      let r, ledger = run_with_ledger sysconf in
      let cores = Runner.default_options.Runner.machine.Config.cores in
      let b = Profile.of_ledger ~cores ledger in
      (* The ledger is an independent path to the same totals. *)
      assert (Profile.total_aborts b = r.Runner.aborts);
      assert (Profile.abort_mix b = r.Runner.abort_mix);
      Report.print
        (Tracing.breakdown_table
           ~title:
             (Printf.sprintf "%s — %d cycles, commit rate %.1f%%"
                sysconf.Sysconf.name r.Runner.cycles
                (100.0 *. r.Runner.commit_rate))
           b);
      last := Some (sysconf.Sysconf.name, ledger))
    [ Sysconf.baseline; Sysconf.lockiller_rwi; Sysconf.lockiller ];
  (match !last with
  | Some (name, ledger) ->
    let file = Filename.temp_file "lockiller_" "_trace.json" in
    Tracing.write_perfetto ~file ledger;
    Printf.printf
      "Perfetto timeline of the %s run written to %s\n\
     \  (open in https://ui.perfetto.dev — one track per core, aborted\n\
     \  attempts as abort:<reason> slices)\n\n" name file
  | None -> ());
  Printf.printf
    "Baseline shows the best-effort failure modes: mutex aborts (fallback-lock\n\
     subscription) on top of memory conflicts. Recovery (RWI) removes the\n\
     friendly-fire share; full LockillerTM also runs the fallback path as lock\n\
     transactions, so mutex aborts disappear and the residual mix is mc + lock.\n"
