(* Command-line driver for the LockillerTM simulator.

   lockiller_sim run --system LockillerTM --workload intruder --threads 32
   lockiller_sim experiment fig7 --scale 0.5
   lockiller_sim experiment all
   lockiller_sim list *)

open Cmdliner
module Sysconf = Lockiller.Mechanisms.Sysconf
module Runner = Lockiller.Sim.Runner
module Config = Lockiller.Sim.Config
module Experiments = Lockiller.Sim.Experiments
module Report = Lockiller.Sim.Report
module Accounting = Lockiller.Cpu.Accounting
module Reason = Lockiller.Htm.Reason
module Json = Lockiller.Sim.Json
module Schema = Lockiller.Sim.Schema
module Cache = Lockiller.Sim.Cache
module Pool = Lockiller.Sim.Pool
module Perf = Lockiller.Sim.Perf
module Tracing = Lockiller.Sim.Tracing
module Telemetry = Lockiller.Sim.Telemetry
module Cli = Lockiller.Sim.Cli
module Trace_record = Lockiller.Trace.Record
module Trace_stream = Lockiller.Trace.Stream
module Trace_gen = Lockiller.Trace.Gen
module Suite = Lockiller.Stamp.Suite
module Workload_source = Lockiller.Sim.Workload_source
module Profile = Lockiller.Sim.Profile
module Runtime = Lockiller.Mechanisms.Runtime
module Ledger = Lockiller.Engine.Ledger
module Stats = Lockiller.Engine.Stats
module Program = Lockiller.Cpu.Program

(* --- shared options ---------------------------------------------------- *)

(* The validators live in [Lk_sim.Cli]; here they are only wrapped
   into cmdliner converters. *)
let conv_of_check check print =
  Arg.conv ((fun s -> Result.map_error (fun m -> `Msg m) (check s)), print)

let cache_conv =
  conv_of_check Cli.cache_profile (fun ppf c ->
      Format.pp_print_string ppf (Config.cache_profile_id c))

(* Reject nonsense argument values up front with a clear message rather
   than clamping silently or failing deep inside a run. *)
let pos_int_conv what =
  conv_of_check (Cli.positive_int ~what) Format.pp_print_int

(* A path we will later open for writing. *)
let writable_path_conv =
  conv_of_check Cli.writable_path Format.pp_print_string

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic RNG seed.")

let scale_t =
  Arg.(
    value
    & opt
        (conv_of_check (Cli.scale ~what:"--scale") Format.pp_print_float)
        1.0
    & info [ "scale" ]
        ~doc:"Workload size multiplier (transactions/thread); finite and \
              positive.")

let cache_t =
  Arg.(
    value
    & opt cache_conv Config.Typical
    & info [ "cache" ] ~doc:"Cache profile: typical, small or large.")

let cores_t =
  Arg.(
    value
    & opt (conv_of_check (Cli.cores ~what:"--cores") Format.pp_print_int) 32
    & info [ "cores" ]
        ~doc:"Machine size in tiles, 1 to 1024; the mesh takes the \
              nearest-square shape (32 -> 4x8, 256 -> 16x16).")

let format_t =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("csv", `Csv); ("json", `Json) ]) `Text
    & info [ "format" ] ~doc:"Output format: text (default), csv or json.")

let cache_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Result-cache directory (default \\$LOCKILLER_CACHE_DIR, else               \\$XDG_CACHE_HOME/lockiller, else ~/.cache/lockiller).")

let resolve_cache_dir = function
  | Some dir -> dir
  | None -> Cache.default_dir ()

(* --- single runs -------------------------------------------------------- *)

(* What run, trace, profile, custom and replay share: the -s/-w/-t
   arguments, the run options, the name lookup (Lockiller.lookup and
   Sysconf.lookup, whose errors list every accepted name) and the
   mapping of a failed run to a named error (Lockiller.guard). *)

let system_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "system"; "s" ] ~doc:"System to simulate (see 'list').")

let workload_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "workload"; "w" ] ~doc:"Workload to run (see 'list').")

let threads_t =
  Arg.(
    required
    & opt (some int) None
    & info [ "threads"; "t" ] ~doc:"Thread count (2..cores).")

(* Run options from --cache and --cores, and from --seed and --scale
   where the command takes them (the defaults otherwise). *)
let options_t ?(seed = Term.const Runner.default_options.Runner.seed)
    ?(scale = Term.const Runner.default_options.Runner.scale) () =
  Term.(
    const (fun seed scale cache cores ->
        Lockiller.options ~seed ~scale ~cache ~cores ())
    $ seed $ scale $ cache_t $ cores_t)

let ( let* ) = Result.bind

(* A command's outcome for cmdliner: an error prints as
   "lockiller_sim: <message>". *)
let ret = function Ok () -> `Ok () | Error msg -> `Error (false, msg)

let run_workload ~options ~system ~workload ~threads =
  let* sysconf, profile = Lockiller.lookup ~system ~workload in
  Lockiller.guard (fun () ->
      Runner.run ~options ~sysconf ~workload:profile ~threads ())

(* --- observability options --------------------------------------------- *)

let trace_events_t =
  Arg.(
    value
    & opt (some writable_path_conv) None
    & info [ "trace-events" ] ~docv:"FILE"
        ~doc:"Write a Chrome/Perfetto trace of the run to $(docv): one \
              track per core, transactions as duration slices (aborts \
              tagged with their cause), NACKs/kills/parks as instants. \
              Load it at https://ui.perfetto.dev.")

let abort_breakdown_t =
  Arg.(
    value & flag
    & info [ "abort-breakdown" ]
        ~doc:"Print the abort-cause breakdown folded from the event \
              ledger as it is recorded (counts match the abort \
              statistics exactly at any --trace-capacity).")

let trace_capacity_t =
  Arg.(
    value
    & opt (pos_int_conv "--trace-capacity") 65536
    & info [ "trace-capacity" ] ~docv:"N"
        ~doc:"Event-ledger ring capacity in records, for --trace-events \
              and the 'trace' listing; older records are dropped beyond \
              it.")

let telemetry_file_t =
  Arg.(
    value
    & opt (some writable_path_conv) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:"Sample per-core phases, machine gauges and per-link flit \
              counters periodically during the run and write the time \
              series to $(docv) (CSV if it ends in .csv, JSON \
              otherwise). Off by default: no sampling cost. Inspect \
              with 'lockiller_sim top'.")

let sample_interval_t =
  Arg.(
    value
    & opt (pos_int_conv "--sample-interval") 1024
    & info [ "sample-interval" ] ~docv:"CYCLES"
        ~doc:"Telemetry sampling period in cycles (with --telemetry).")

let telemetry_request ?sample_interval telemetry_file sink =
  Option.map
    (fun _ -> Runner.telemetry_request ?interval:sample_interval sink)
    telemetry_file

let emit_telemetry ~telemetry_file tele =
  match (telemetry_file, tele) with
  | Some file, Some t ->
    Telemetry.write t ~file;
    Printf.printf "# telemetry: wrote %s (%d samples, %d dropped)\n" file
      (Telemetry.samples t) (Telemetry.dropped t)
  | _ -> ()

(* What a run keeps for output besides its result. *)
type observed = {
  mutable runtime : Runtime.t option;
  mutable profile : Profile.t option;
  mutable telemetry : Telemetry.t option;
}

(* [options] with hooks that fill a fresh [observed]. The ledger is
   enabled only when [ledger] asks for it, so a plain run pays nothing;
   [profile] puts a streaming Profile on its tap, which sees every
   record however small the ring. *)
let observe ?telemetry_file ?sample_interval ~ledger ~profile ~capacity
    options =
  let obs = { runtime = None; profile = None; telemetry = None } in
  let on_runtime rt =
    obs.runtime <- Some rt;
    if ledger then begin
      let l = Runtime.enable_ledger ~capacity rt in
      if profile then begin
        let p = Profile.create ~cores:options.Runner.machine.Config.cores in
        Profile.attach p l;
        obs.profile <- Some p
      end
    end
  in
  ( obs,
    {
      options with
      Runner.on_runtime;
      telemetry =
        telemetry_request ?sample_interval telemetry_file (fun t ->
            obs.telemetry <- Some t);
    } )

(* The telemetry export, the Perfetto trace and the abort breakdown. *)
let emit_observed obs ~format ~telemetry_file ~trace_events =
  emit_telemetry ~telemetry_file obs.telemetry;
  (match (trace_events, Option.bind obs.runtime Runtime.ledger) with
  | Some file, Some l ->
    Tracing.write_perfetto ?telemetry:obs.telemetry ~file l;
    Printf.printf "# trace-events: wrote %s (%d events, %d dropped)\n" file
      (Ledger.length l) (Ledger.dropped l)
  | _ -> ());
  Option.iter
    (fun p ->
      match format with
      | `Text -> Report.print (Tracing.breakdown_table p)
      | `Csv -> print_string (Report.to_csv (Tracing.breakdown_table p))
      | `Json -> print_endline (Json.to_string (Tracing.json_of_breakdown p)))
    obs.profile

(* --- run --------------------------------------------------------------- *)

let print_result (r : Runner.result) =
  Printf.printf "system        %s\n" r.Runner.system;
  Printf.printf "workload      %s\n" r.Runner.workload;
  Printf.printf "threads       %d\n" r.Runner.threads;
  Printf.printf "cycles        %d\n" r.Runner.cycles;
  Printf.printf "commit rate   %.1f%%\n" (100.0 *. r.Runner.commit_rate);
  Printf.printf "htm commits   %d\n" r.Runner.htm_commits;
  Printf.printf "stl commits   %d\n" r.Runner.stl_commits;
  Printf.printf "lock commits  %d\n" r.Runner.lock_commits;
  Printf.printf "sw commits    %d\n" r.Runner.sw_commits;
  Printf.printf "aborts        %d\n" r.Runner.aborts;
  if r.Runner.htm_commits > 0 then
    Printf.printf "attempts      %.2f per commit\n"
      r.Runner.avg_attempts_per_commit;
  List.iter
    (fun (reason, n) ->
      if n > 0 then Printf.printf "  %-9s   %d\n" (Reason.label reason) n)
    r.Runner.abort_mix;
  Printf.printf "wasted        %d cycles\n" r.Runner.wasted_cycles;
  List.iter
    (fun (reason, n) ->
      if n > 0 then Printf.printf "  %-9s   %d\n" (Reason.label reason) n)
    r.Runner.wasted_by_reason;
  Printf.printf "rejects       %d\n" r.Runner.rejects;
  Printf.printf "parks         %d (wakeups %d)\n" r.Runner.parks
    r.Runner.wakeups;
  Printf.printf "switches      %d granted, %d denied, %d lines spilled\n"
    r.Runner.switches_granted r.Runner.switches_denied r.Runner.spilled_lines;
  Printf.printf "network       %d messages, %d flits\n" r.Runner.network_messages
    r.Runner.network_flits;
  if r.Runner.clock_advances > 0 then
    Printf.printf "version clock %d advances\n" r.Runner.clock_advances;
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Runner.breakdown in
  Printf.printf "time breakdown:\n";
  List.iter
    (fun (cat, n) ->
      if total > 0 then
        Printf.printf "  %-10s %6.1f%%  (%d cycles)\n" (Accounting.label cat)
          (100.0 *. float_of_int n /. float_of_int total)
          n)
    r.Runner.breakdown;
  match r.Runner.open_loop with
  | None -> ()
  | Some o ->
    Printf.printf "open loop:\n";
    Printf.printf "  arrivals    %d (%d completed, max backlog %d)\n"
      o.Runner.arrivals o.Runner.completed o.Runner.max_backlog;
    Printf.printf "  queue delay p50/p95/p99  %d/%d/%d cycles\n"
      o.Runner.queue_delay_p50 o.Runner.queue_delay_p95 o.Runner.queue_delay_p99;
    Printf.printf "  sojourn     p50/p95/p99  %d/%d/%d cycles\n"
      o.Runner.sojourn_p50 o.Runner.sojourn_p95 o.Runner.sojourn_p99;
    List.iter
      (fun (phase, n) -> Printf.printf "  phase %-2d    %d completions\n" phase n)
      o.Runner.phase_mix

let check_t =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Attach the invariant sanitizer: event-level invariant \
              predicates run at every ledger emission and the end-of-run \
              checks after the last thread finishes; any violation fails \
              the run. See the 'check' subcommand for the exhaustive \
              small-configuration checker.")

let stats_t =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Also dump the raw statistic groups (protocol, runtime, \
              network). Embedded under \"stats\" with --format json; \
              ignored with --format csv.")

(* Results as CSV: a header of the flat view's column names
   (Runner.columns), then one row per result. *)
let print_results_csv = function
  | [] -> ()
  | r :: _ as results ->
    let cell = function
      | Json.Null -> ""
      | Json.Int n -> string_of_int n
      | Json.Float f -> Printf.sprintf "%.17g" f
      | Json.String s -> s
      | Json.Bool _ | Json.List _ | Json.Obj _ -> assert false
    in
    let row r = List.map (fun (_, v) -> cell v) (Runner.columns r) in
    print_string
      (Report.to_csv
         (Report.table ~title:"results"
            ~headers:(List.map fst (Runner.columns r))
            (List.map row results)))

let json_of_group group =
  Json.Obj
    (List.map
       (fun (name, v) -> (name, Json.Int v))
       (Stats.counters group))

let run_cmd =
  let action system workload threads options stats format trace_events
      breakdown trace_capacity check telemetry_file sample_interval =
    let obs, options =
      observe ?telemetry_file ~sample_interval
        ~ledger:(trace_events <> None || breakdown)
        ~profile:breakdown ~capacity:trace_capacity
        { options with Runner.check }
    in
    ret
      (let* r = run_workload ~options ~system ~workload ~threads in
       let stat_groups () =
         match obs.runtime with
         | None -> []
         | Some rt ->
           let protocol = Runtime.protocol rt in
           [
             ("runtime", Runtime.stats rt);
             ("protocol", Lockiller.Coherence.Protocol.stats protocol);
             ( "network",
               Lockiller.Mesh.Network.stats
                 (Lockiller.Coherence.Protocol.network protocol) );
           ]
       in
       (match format with
       | `Text ->
         print_result r;
         if stats then
           List.iter
             (fun (_, g) -> Format.printf "@.%a@." Stats.pp g)
             (stat_groups ())
       | `Csv -> print_results_csv [ r ]
       | `Json ->
         let doc =
           if stats then
             Json.Obj
               [
                 ("result", Runner.json_of_result r);
                 ( "stats",
                   Json.Obj
                     (List.map
                        (fun (name, g) -> (name, json_of_group g))
                        (stat_groups ())) );
               ]
           else Runner.json_of_result r
         in
         print_endline (Json.to_string doc));
       emit_observed obs ~format ~telemetry_file ~trace_events;
       Ok ())
  in
  let term =
    Term.(
      ret
        (const action $ system_t $ workload_t $ threads_t
        $ options_t ~seed:seed_t ~scale:scale_t ()
        $ stats_t $ format_t $ trace_events_t $ abort_breakdown_t
        $ trace_capacity_t $ check_t $ telemetry_file_t $ sample_interval_t))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one system/workload/thread combination")
    term

(* --- profile ------------------------------------------------------------ *)

(* Causal abort profiler: run one configuration with the event ledger
   on and a streaming Profile tap attached, then render the
   who-killed-whom graph, wasted-work accounting, convoy and
   critical-path summary. The tap sees every record as it is emitted,
   so the ring capacity is irrelevant to the totals — a small ring
   keeps memory flat. *)
let profile_cmd =
  let action system workload threads options format =
    let obs, options =
      observe ~ledger:true ~profile:true ~capacity:1024 options
    in
    ret
      (let* r = run_workload ~options ~system ~workload ~threads in
       match obs.profile with
       | None -> Error "profiler was never attached"
       | Some p when Profile.total_aborts p <> r.Runner.aborts ->
         (* Cross-check the stream against the run's own counters:
            every abort must have produced exactly one edge. *)
         Error
           (Printf.sprintf
              "profile/result mismatch: %d abort edges vs %d aborts"
              (Profile.total_aborts p) r.Runner.aborts)
       | Some p ->
         (match format with
         | `Text ->
           Printf.printf "# profile: %s/%s threads=%d seed=%d\n"
             r.Runner.system r.Runner.workload threads options.Runner.seed;
           print_string (Profile.to_text p)
         | `Csv -> print_string (Profile.to_csv p)
         | `Json -> print_endline (Profile.to_json p));
         Ok ())
  in
  let term =
    Term.(
      ret
        (const action $ system_t $ workload_t $ threads_t
        $ options_t ~seed:seed_t ~scale:scale_t ()
        $ format_t))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run one system/workload/thread combination with the causal \
             abort profiler attached and print the who-killed-whom \
             graph, wasted-work accounting, fallback-lock convoy and \
             commit critical-path summary (text, csv or json)")
    term

(* --- check --------------------------------------------------------------- *)

let check_cmd =
  let module Check = Lockiller.Check in
  let module Types = Lockiller.Coherence.Types in
  let scenario_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Check only this scenario (default: all; see --list).")
  in
  let list_t =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the scenarios and checked invariants.")
  in
  let fuzz_runs_t =
    Arg.(
      value
      & opt (pos_int_conv "--fuzz-runs") 200
      & info [ "fuzz-runs" ] ~docv:"N"
          ~doc:"Randomized schedules per scenario.")
  in
  let max_schedules_t =
    Arg.(
      value
      & opt (pos_int_conv "--max-schedules") 20000
      & info [ "max-schedules" ] ~docv:"N"
          ~doc:"Exhaustive-exploration bound per scenario.")
  in
  let no_mutations_t =
    Arg.(
      value & flag
      & info [ "no-mutations" ]
          ~doc:"Skip the mutation self-test (injected protocol bugs that \
                the checkers must catch).")
  in
  let mutations =
    [
      (Types.Swmr_violation, Check.Scenario.read_forward);
      (Types.Lost_wakeup, Check.Scenario.park_wake);
      (Types.Dirty_commit, Check.Scenario.commit_race);
    ]
  in
  let action scenario list fuzz_runs max_schedules no_mutations seed =
    if list then begin
      Printf.printf "scenarios:\n";
      List.iter
        (fun (s : Check.Scenario.t) ->
          Printf.printf "  %-14s %s\n" s.Check.Scenario.name
            s.Check.Scenario.descr)
        Check.Scenario.all;
      Printf.printf "\nstate invariants: %s\n"
        (String.concat ", " Check.Invariant.names);
      `Ok ()
    end
    else
      let scenarios =
        match scenario with
        | None -> Ok Check.Scenario.all
        | Some name -> (
          match Check.Scenario.find name with
          | Some s -> Ok [ s ]
          | None ->
            Error
              (Printf.sprintf "unknown scenario %S; try: %s" name
                 (String.concat ", "
                    (List.map
                       (fun (s : Check.Scenario.t) -> s.Check.Scenario.name)
                       Check.Scenario.all))))
      in
      match scenarios with
      | Error msg -> `Error (false, msg)
      | Ok scenarios ->
        let failures = ref 0 in
        List.iter
          (fun (s : Check.Scenario.t) ->
            let verdict =
              Check.Explorer.explore ~max_schedules:max_schedules s
            in
            (match verdict with
            | Check.Explorer.Exhausted _ | Check.Explorer.Bounded _ -> ()
            | Check.Explorer.Violation _ -> incr failures);
            Printf.printf "%-14s explore  %s\n%!" s.Check.Scenario.name
              (Format.asprintf "%a" Check.Explorer.pp_verdict verdict);
            let outcome = Check.Fuzzer.fuzz ~runs:fuzz_runs ~seed s in
            (match outcome with
            | Check.Fuzzer.Passed _ -> ()
            | Check.Fuzzer.Failed _ -> incr failures);
            Printf.printf "%-14s fuzz     %s\n%!" s.Check.Scenario.name
              (Format.asprintf "%a" Check.Fuzzer.pp_outcome outcome))
          scenarios;
        if (not no_mutations) && scenario = None then begin
          Printf.printf "mutation self-test:\n%!";
          List.iter
            (fun (fault, (s : Check.Scenario.t)) ->
              (* Each deliberately broken variant must be caught twice
                 over: by the sanitizer checks during a default-schedule
                 run, and by the explorer (whose counterexample must
                 still fail on replay). *)
              let label = Types.fault_label fault in
              let default_run = Check.Harness.default ~inject_bug:fault s in
              let default_caught =
                match default_run.Check.Harness.status with
                | Check.Harness.Completed -> false
                | Check.Harness.Violated _ | Check.Harness.Livelocked _ ->
                  true
              in
              let explorer_caught =
                match
                  Check.Explorer.explore ~max_schedules:max_schedules
                    ~inject_bug:fault s
                with
                | Check.Explorer.Violation { schedule; violation; _ } -> (
                  match
                    (Check.Harness.replay ~inject_bug:fault ~schedule s)
                      .Check.Harness.status
                  with
                  | Check.Harness.Completed -> None
                  | Check.Harness.Violated _ | Check.Harness.Livelocked _ ->
                    Some (schedule, violation))
                | Check.Explorer.Exhausted _ | Check.Explorer.Bounded _ ->
                  None
              in
              match (default_caught, explorer_caught) with
              | true, Some (schedule, violation) ->
                Printf.printf
                  "  %-15s caught on %s (schedule %s: %s)\n%!" label
                  s.Check.Scenario.name
                  (Check.Schedule.to_string schedule)
                  (Check.Invariant.violation_to_string violation)
              | _ ->
                incr failures;
                Printf.printf "  %-15s NOT caught on %s%s\n%!" label
                  s.Check.Scenario.name
                  (if default_caught then " (explorer missed it)"
                   else " (sanitizer missed it)"))
            mutations
        end;
        if !failures = 0 then begin
          Printf.printf "check: OK (%d scenarios)\n" (List.length scenarios);
          `Ok ()
        end
        else
          `Error
            (false, Printf.sprintf "check: %d failure(s)" !failures)
  in
  let term =
    Term.(
      ret
        (const action $ scenario_t $ list_t $ fuzz_runs_t $ max_schedules_t
       $ no_mutations_t $ seed_t))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Exhaustively explore and fuzz event interleavings of small \
             configurations against the protocol invariants")
    term

(* --- experiment -------------------------------------------------------- *)

let experiment_cmd =
  let ids =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids (table1, table2, fig1, fig7...fig13, headline, \
                ablation, txsize, noc, topology, placement, protocol, \
                variance, hytm — see 'list') or 'all'. They run on one \
                context, so a simulation two of them share runs once.")
  in
  let threads_opt =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "threads" ]
          ~doc:"Comma-separated thread counts (default 2,4,8,16,32).")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~doc:"Also write each table as CSV into this directory.")
  in
  let jobs_t =
    Arg.(
      value
      & opt (some (pos_int_conv "--jobs")) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Simulations to run in parallel (default: the number of \
                available cores; 1 disables the pool). Results are \
                byte-identical for any job count.")
  in
  let no_cache_t =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Do not read or write the result cache.")
  in
  let find id =
    if String.lowercase_ascii id = "all" then Ok Experiments.all
    else
      Option.to_result
        ~none:
          (Printf.sprintf "unknown experiment %S; try: %s" id
             (String.concat ", "
                (List.map (fun e -> e.Experiments.id) Experiments.all)))
        (Option.map (fun e -> [ e ]) (Experiments.find id))
  in
  let action ids threads csv_dir format jobs no_cache cache_dir seed scale
      cores =
    let jobs =
      match jobs with Some j -> j | None -> Pool.default_jobs ()
    in
    let cache =
      if no_cache then None
      else Some (Cache.create ~dir:(resolve_cache_dir cache_dir) ())
    in
    let emit_csv table =
      match csv_dir with
      | None -> ()
      | Some dir -> (
        match Report.write_csv ~dir table with
        | Ok _ -> ()
        | Error msg -> failwith msg)
    in
    (* Text output also reports the host cost of each experiment and,
       at the end, how many simulations ran. Host time varies run to
       run, so these parenthesised lines are the only output that may
       differ between runs or --jobs counts; JSON and CSV carry none. *)
    let render ctx e =
      Perf.reset_totals ();
      let t0 = Sys.time () in
      let tables = Experiments.execute ctx e in
      List.iter emit_csv tables;
      match format with
      | `Text ->
        Printf.printf "# %s — %s\n%s\n\n" e.Experiments.artefact
          e.Experiments.id e.Experiments.describe;
        List.iter Report.print tables;
        Printf.printf "(rendered in %.1fs cpu)\n(perf: %s)\n\n%!"
          (Sys.time () -. t0)
          (Format.asprintf "%a" Perf.pp_totals (Perf.totals ()));
        None
      | `Csv ->
        List.iter (fun t -> print_string (Report.to_csv t)) tables;
        None
      | `Json ->
        Some
          (Json.Obj
             [
               ("id", Json.String e.Experiments.id);
               ("artefact", Json.String e.Experiments.artefact);
               ("describe", Json.String e.Experiments.describe);
               ("tables", Json.List (List.map Report.json_of_table tables));
             ])
    in
    let finish ctx docs =
      match format with
      | `Json -> print_endline (Json.to_string (Json.List docs))
      | `Csv -> ()
      | `Text -> (
        let sims = Experiments.simulations ctx in
        match cache with
        | None -> Printf.printf "(simulations: %d, cache disabled)\n%!" sims
        | Some c ->
          Printf.printf "(simulations: %d, cache hits: %d, stores: %d)\n%!"
            sims (Cache.hits c) (Cache.stores c))
    in
    ret
      (let* experiments =
         List.fold_left
           (fun acc id ->
             let* acc = acc in
             let* es = find id in
             Ok (acc @ es))
           (Ok []) ids
       in
       (* The counters cover the simulations that ran, also when a
          later experiment fails. *)
       Fun.protect
         ~finally:(fun () -> Option.iter Cache.persist_counters cache)
         (fun () ->
           Lockiller.guard (fun () ->
               let ctx =
                 Experiments.make_context ~seed ~scale ~cores ?threads ~jobs
                   ?cache ()
               in
               finish ctx (List.filter_map (render ctx) experiments))))
  in
  let term =
    Term.(
      ret
        (const action $ ids $ threads_opt $ csv_dir $ format_t $ jobs_t
       $ no_cache_t $ cache_dir_t $ seed_t $ scale_t $ cores_t))
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate tables and figures of the paper (or 'all')")
    term

(* --- trace --------------------------------------------------------------- *)

let trace_cmd =
  let last =
    Arg.(
      value
      & opt
          (conv_of_check (Cli.non_negative_int ~what:"--last")
             Format.pp_print_int)
          200
      & info [ "last"; "n" ] ~doc:"How many trailing events to print.")
  in
  let action system workload threads last options trace_events breakdown
      trace_capacity telemetry_file sample_interval =
    let obs, options =
      observe ?telemetry_file ~sample_interval ~ledger:true ~profile:breakdown
        ~capacity:trace_capacity options
    in
    ret
      (let* r = run_workload ~options ~system ~workload ~threads in
       Option.iter
         (fun l ->
           Printf.printf "# %d ledger records (%d dropped); last %d:\n"
             (Ledger.recorded l) (Ledger.dropped l) last;
           Tracing.pp_tail ~last Format.std_formatter l)
         (Option.bind obs.runtime Runtime.ledger);
       emit_observed obs ~format:`Text ~telemetry_file ~trace_events;
       Printf.printf "\n# run summary: %d cycles, commit rate %.1f%%\n"
         r.Runner.cycles
         (100.0 *. r.Runner.commit_rate);
       Ok ())
  in
  let term =
    Term.(
      ret
        (const action $ system_t $ workload_t $ threads_t $ last
        $ options_t ~seed:seed_t ~scale:scale_t ()
        $ trace_events_t $ abort_breakdown_t $ trace_capacity_t
        $ telemetry_file_t $ sample_interval_t))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one simulation and print the tail of its event ledger")
    term

(* --- sweep --------------------------------------------------------------- *)

let sweep_cmd =
  let workload =
    Arg.(
      required
      & opt (some string) None
      & info [ "workload"; "w" ] ~doc:"Workload to sweep.")
  in
  let systems =
    Arg.(
      value
      & opt (list string) [ "CGL"; "Baseline"; "LockillerTM" ]
      & info [ "systems" ] ~doc:"Comma-separated system names.")
  in
  let threads =
    Arg.(
      value
      & opt (list int) [ 2; 4; 8; 16; 32 ]
      & info [ "threads"; "t" ] ~doc:"Comma-separated thread counts.")
  in
  let metric =
    Arg.(
      value
      & opt (enum [ ("cycles", `Cycles); ("speedup", `Speedup);
                    ("commit-rate", `Rate) ])
          `Speedup
      & info [ "metric" ]
          ~doc:"What to report: cycles, speedup (vs CGL) or commit-rate.")
  in
  (* One experiment context for the grid: its memo simulates each
     (system, threads) job once, so CGL runs once per thread count
     however many systems the speedups compare. *)
  let action workload systems threads metric seed scale cache cores =
    ret
      (let* ctx =
         Lockiller.guard (fun () ->
             Experiments.make_context ~seed ~scale ~cores ~threads ())
       in
       print_endline ("threads," ^ String.concat "," systems);
       let exit_error = ref None in
       List.iter
         (fun t ->
           let cell system =
             let* sysconf, workload = Lockiller.lookup ~system ~workload in
             Lockiller.guard (fun () ->
                 let result () =
                   Experiments.result ctx ~cache ~sysconf ~workload ~threads:t
                     ()
                 in
                 match metric with
                 | `Cycles -> string_of_int (result ()).Runner.cycles
                 | `Rate -> Printf.sprintf "%.4f" (result ()).Runner.commit_rate
                 | `Speedup ->
                   Printf.sprintf "%.4f"
                     (Experiments.speedup_vs_cgl ctx ~cache ~sysconf ~workload
                        ~threads:t ()))
           in
           let cells =
             List.map
               (fun system ->
                 match cell system with
                 | Ok v -> v
                 | Error msg ->
                   exit_error := Some msg;
                   "error")
               systems
           in
           Printf.printf "%d,%s\n%!" t (String.concat "," cells))
         threads;
       match !exit_error with None -> Ok () | Some msg -> Error msg)
  in
  let term =
    Term.(
      ret
        (const action $ workload $ systems $ threads $ metric $ seed_t
       $ scale_t $ cache_t $ cores_t))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep thread counts for one workload and print CSV")
    term

(* --- custom -------------------------------------------------------------- *)

let read_file file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let custom_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Program in the text format of Lk_cpu.Program (see \
                examples/custom_workload.txt).")
  in
  let system =
    Arg.(
      value
      & opt string "LockillerTM"
      & info [ "system"; "s" ] ~doc:"System to simulate.")
  in
  let action file system options =
    ret
      (let* program =
         Result.map_error
           (fun msg -> file ^ ": " ^ msg)
           (Program.of_text (read_file file))
       in
       let* sysconf = Sysconf.lookup system in
       let* r =
         Lockiller.guard (fun () ->
             Runner.run_program ~options ~name:(Filename.basename file)
               ~sysconf ~program ())
       in
       print_result r;
       Ok ())
  in
  let term = Term.(ret (const action $ file $ system $ options_t ())) in
  Cmd.v
    (Cmd.info "custom" ~doc:"Run a hand-written workload from a text file")
    term

(* --- gen-trace ---------------------------------------------------------- *)

let trace_format_conv =
  conv_of_check Trace_stream.format_of_string (fun ppf f ->
      Format.pp_print_string ppf (Trace_stream.format_to_string f))

let gen_trace_cmd =
  let d = Trace_gen.default in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Trace destination; - (the default) writes to stdout for \
                piping into 'replay -'.")
  in
  let users =
    Arg.(
      value
      & opt (pos_int_conv "--users") d.Trace_gen.users
      & info [ "users" ] ~docv:"N" ~doc:"Simulated user population.")
  in
  let think =
    Arg.(
      value
      & opt float d.Trace_gen.think_time
      & info [ "think" ] ~docv:"CYCLES"
          ~doc:"Mean cycles between one user's transactions.")
  in
  let duration =
    Arg.(
      value
      & opt (pos_int_conv "--duration") d.Trace_gen.duration
      & info [ "duration" ] ~docv:"CYCLES" ~doc:"Trace horizon in cycles.")
  in
  let day =
    Arg.(
      value
      & opt (pos_int_conv "--day") d.Trace_gen.day
      & info [ "day" ] ~docv:"CYCLES"
          ~doc:"Diurnal period; arrivals are tagged with the quarter of \
                the day they fall in (phase 0..3).")
  in
  let diurnal_amp =
    Arg.(
      value
      & opt float d.Trace_gen.diurnal_amp
      & info [ "diurnal-amp" ] ~docv:"A"
          ~doc:"Diurnal rate-swing amplitude in [0, 1).")
  in
  let burst_every =
    Arg.(
      value
      & opt int d.Trace_gen.burst_every
      & info [ "burst-every" ] ~docv:"CYCLES"
          ~doc:"Burst window period; 0 disables bursts.")
  in
  let burst_len =
    Arg.(
      value
      & opt int d.Trace_gen.burst_len
      & info [ "burst-len" ] ~docv:"CYCLES" ~doc:"Burst window length.")
  in
  let burst_mult =
    Arg.(
      value
      & opt float d.Trace_gen.burst_mult
      & info [ "burst-mult" ] ~docv:"M"
          ~doc:"Arrival-rate multiplier inside a burst (>= 1).")
  in
  let reads =
    Arg.(
      value
      & opt (pair int int) d.Trace_gen.reads_per_tx
      & info [ "reads" ] ~docv:"LO,HI"
          ~doc:"Inclusive uniform range of reads per transaction.")
  in
  let writes =
    Arg.(
      value
      & opt (pair int int) d.Trace_gen.writes_per_tx
      & info [ "writes" ] ~docv:"LO,HI"
          ~doc:"Inclusive uniform range of writes per transaction.")
  in
  let gcores =
    Arg.(
      value
      & opt (pos_int_conv "--cores") d.Trace_gen.cores
      & info [ "cores" ] ~docv:"N"
          ~doc:"Target core count for affinity tagging.")
  in
  let affinity =
    Arg.(
      value
      & opt
          (enum
             [
               ("any", Trace_gen.Any);
               ("uniform", Trace_gen.Uniform);
               ("sticky", Trace_gen.Sticky);
             ])
          d.Trace_gen.affinity
      & info [ "affinity" ]
          ~doc:"Core affinity of arrivals: any (untagged), uniform, or \
                sticky (Zipf-popular users pinned to user mod cores).")
  in
  let sticky_skew =
    Arg.(
      value
      & opt float d.Trace_gen.sticky_skew
      & info [ "sticky-skew" ] ~docv:"S"
          ~doc:"Zipf skew of the user popularity for --affinity sticky.")
  in
  let fmt =
    Arg.(
      value
      & opt trace_format_conv Trace_stream.Binary
      & info [ "format" ] ~doc:"Trace encoding: bin (default) or text.")
  in
  let action out users think duration day diurnal_amp burst_every burst_len
      burst_mult reads writes cores affinity sticky_skew fmt seed =
    let profile =
      {
        Trace_gen.users;
        think_time = think;
        duration;
        day;
        diurnal_amp;
        burst_every;
        burst_len;
        burst_mult;
        reads_per_tx = reads;
        writes_per_tx = writes;
        cores;
        affinity;
        sticky_skew;
      }
    in
    let emit_trace oc =
      set_binary_mode_out oc true;
      let w = Trace_stream.writer_to_channel fmt oc in
      let exception Emit of string in
      match
        Trace_gen.generate profile ~seed ~emit:(fun r ->
            match Trace_stream.write w r with
            | Ok () -> ()
            | Error msg -> raise (Emit msg))
      with
      | exception Emit msg -> Error msg
      | Error msg -> Error msg
      | Ok n ->
        flush oc;
        Ok n
    in
    let res =
      if out = "-" then emit_trace stdout
      else
        match Cli.writable_path out with
        | Error msg -> Error msg
        | Ok path ->
          let oc = open_out_bin path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> emit_trace oc)
    in
    match res with
    | Error msg -> `Error (false, msg)
    | Ok n ->
      Printf.eprintf "# gen-trace: %d records (%s, seed %d)\n%!" n
        (Trace_stream.format_to_string fmt) seed;
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ out $ users $ think $ duration $ day $ diurnal_amp
       $ burst_every $ burst_len $ burst_mult $ reads $ writes $ gcores
       $ affinity $ sticky_skew $ fmt $ seed_t))
  in
  Cmd.v
    (Cmd.info "gen-trace"
       ~doc:"Generate a deterministic open-loop arrival trace: \
             non-homogeneous Poisson traffic (diurnal swing plus burst \
             windows) from a simulated user population, streamed in O(1) \
             memory. Pipe into 'replay -' or save with -o.")
    term

(* --- replay ------------------------------------------------------------- *)

let replay_cmd =
  let trace_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:"Trace to replay (from 'gen-trace'); - reads stdin, which \
                supports a single --system only.")
  in
  let systems_t =
    Arg.(
      value
      & opt_all string [ "LockillerTM" ]
      & info [ "system"; "s" ]
          ~doc:"System to drive (repeatable; a trace file is re-read per \
                system, see 'list').")
  in
  let body_t =
    Arg.(
      value
      & opt string "vacation"
      & info [ "body" ] ~docv:"WORKLOAD"
          ~doc:"Access-pattern template for transaction bodies \
                (hot/shared/private mix, compute interleave); per-record \
                footprints come from the trace.")
  in
  let threads_t =
    Arg.(
      value
      & opt (pos_int_conv "--threads") 8
      & info [ "threads"; "t" ] ~doc:"Stream cores serving the arrivals.")
  in
  let jobs_t =
    Arg.(
      value
      & opt (pos_int_conv "--jobs") 1
      & info [ "jobs"; "j" ]
          ~doc:"Worker domains when replaying multiple systems.")
  in
  (* The first error of [results], or all of them. *)
  let all_ok results =
    List.fold_right
      (fun r acc ->
        let* r = r in
        Result.map (List.cons r) acc)
      results (Ok [])
  in
  let action trace systems body threads jobs format options telemetry_file
      sample_interval =
    ret
      (let* sysconfs = all_ok (List.map Sysconf.lookup systems) in
       let* () =
         if trace = "-" && List.length systems > 1 then
           Error
             "replay from stdin drives a single --system; save the trace to \
              a file to replay it against several"
         else if telemetry_file <> None && List.length systems > 1 then
           Error "--telemetry records a single --system per file"
         else Ok ()
       in
       let* profile = Result.bind (Suite.spec_of_name body) Suite.realise in
       let trace_name =
         if trace = "-" then "stdin"
         else Filename.remove_extension (Filename.basename trace)
       in
       let tele = ref None in
       let options =
         {
           options with
           Runner.telemetry =
             telemetry_request ~sample_interval telemetry_file (fun t ->
                 tele := Some t);
         }
       in
       let run_one sysconf =
         match if trace = "-" then stdin else open_in_bin trace with
         | exception Sys_error msg -> Error msg
         | ic ->
           let close () = if trace <> "-" then close_in ic in
           Fun.protect ~finally:close (fun () ->
               let* reader =
                 Trace_stream.reader_of_channel
                   ~name:(if trace = "-" then "<stdin>" else trace)
                   ic
               in
               let source =
                 Workload_source.of_reader ~name:trace_name ~body:profile
                   reader
               in
               Lockiller.guard (fun () ->
                   Runner.run_source ~options ~sysconf ~source ~threads ()))
       in
       let* results =
         all_ok (Array.to_list (Pool.map ~jobs run_one (Array.of_list sysconfs)))
       in
       (match format with
       | `Text ->
         List.iteri
           (fun i r ->
             if i > 0 then print_newline ();
             print_result r)
           results
       | `Csv -> print_results_csv results
       | `Json -> (
         match results with
         | [ r ] -> print_endline (Runner.result_to_json r)
         | _ ->
           print_endline
             (Json.to_string (Json.List (List.map Runner.json_of_result results)))
         ));
       emit_telemetry ~telemetry_file !tele;
       Ok ())
  in
  let term =
    Term.(
      ret
        (const action $ trace_arg $ systems_t $ body_t $ threads_t $ jobs_t
        $ format_t $ options_t ~seed:seed_t () $ telemetry_file_t
        $ sample_interval_t))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay an arrival trace open-loop: records are admitted at \
             their trace arrival cycles whether or not the cores keep up, \
             and queueing delay / sojourn-time percentiles are reported \
             next to the usual commit statistics. Streaming: memory use \
             is independent of trace length.")
    term

(* --- compare ------------------------------------------------------------ *)

(* Two saved run results (lockiller_sim run --format json > FILE) side
   by side: every numeric column present in both, in encoding order,
   with absolute deltas and B/A ratios. *)
let compare_table (a : Runner.result) (b : Runner.result) =
  let ratio va vb =
    if va = 0.0 then "-" else Printf.sprintf "%.3f" (vb /. va)
  in
  let b_columns = Runner.columns ~schema:false b in
  let rows =
    List.filter_map
      (fun (column, va) ->
        match (va, List.assoc_opt column b_columns) with
        | Json.Int va, Some (Json.Int vb) ->
          Some
            [
              column;
              string_of_int va;
              string_of_int vb;
              Printf.sprintf "%+d" (vb - va);
              ratio (float_of_int va) (float_of_int vb);
            ]
        | Json.Float va, Some (Json.Float vb) ->
          Some
            [
              column;
              Printf.sprintf "%.4f" va;
              Printf.sprintf "%.4f" vb;
              Printf.sprintf "%+.4f" (vb -. va);
              ratio va vb;
            ]
        | _ -> None)
      (Runner.columns ~schema:false a)
  in
  let describe (r : Runner.result) =
    Printf.sprintf "%s/%s t%d" r.Runner.system r.Runner.workload
      r.Runner.threads
  in
  let notes =
    if b.Runner.cycles = 0 then []
    else
      [
        Printf.sprintf "speedup (A cycles / B cycles): %.3f"
          (float_of_int a.Runner.cycles /. float_of_int b.Runner.cycles);
      ]
  in
  Report.table ~notes
    ~title:(Printf.sprintf "compare: A=%s vs B=%s" (describe a) (describe b))
    ~headers:[ "metric"; "A"; "B"; "delta"; "B/A" ]
    rows

let compare_cmd =
  let file_a =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"A.json"
          ~doc:"Baseline result (lockiller_sim run --format json > A.json).")
  in
  let file_b =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"B.json" ~doc:"Result to compare against the baseline.")
  in
  let action a b format =
    (* Surface each input's schema version up front (on stderr, so the
       table stays machine-readable): version skew between two saved
       results is the most common reason a compare refuses to run, and
       the named error below should say which file is stale. *)
    (* Saved documents can carry diagnostic riders whose rings
       overflowed (telemetry exports embedded by tooling, profile
       dumps): any "dropped" member
       with a positive count means the file's totals are lower bounds,
       which must not pass silently into a delta table. *)
    let warn_dropped file doc =
      let rec scan path = function
        | Json.Obj fields ->
          List.iter
            (fun (k, v) ->
              let p = if path = "" then k else path ^ "." ^ k in
              (match (k, v) with
              | "dropped", Json.Int n when n > 0 ->
                Printf.eprintf
                  "# compare: WARNING: %s dropped %d records at %s — \
                   its counts are lower bounds\n%!"
                  file n p
              | _ -> ());
              scan p v)
            fields
        | Json.List l ->
          List.iteri
            (fun i v -> scan (Printf.sprintf "%s[%d]" path i) v)
            l
        | _ -> ()
      in
      scan "" doc
    in
    let load file =
      match Json.of_string (read_file file) with
      | exception Sys_error msg -> Error msg
      | Error msg -> Error (file ^ ": " ^ msg)
      | Ok doc -> (
        warn_dropped file doc;
        (* The decoder checks the version; it is read here only to name
           it on stderr and to label a version error. *)
        let version = Runner.schema_of_json doc in
        (match version with
        | Error _ ->
          Printf.eprintf "# compare: %s carries no schema version\n%!" file
        | Ok v ->
          Printf.eprintf "# compare: %s is schema v%d (this build reads v%s)\n%!"
            file v Schema.version_string);
        match Runner.result_of_json_value doc with
        | Ok r -> Ok r
        | Error msg when version <> Ok Schema.version ->
          Error (file ^ ": schema-mismatch: " ^ msg)
        | Error msg -> Error (file ^ ": " ^ msg))
    in
    match (load a, load b) with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok ra, Ok rb ->
      let table = compare_table ra rb in
      (match format with
      | `Text -> Report.print table
      | `Csv -> print_string (Report.to_csv table)
      | `Json -> print_endline (Json.to_string (Report.json_of_table table)));
      `Ok ()
  in
  let term = Term.(ret (const action $ file_a $ file_b $ format_t)) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Diff two saved run results (JSON from 'run --format json' \
             or 'replay --format json'): absolute deltas and ratios for \
             every numeric result column both carry")
    term

(* --- top ---------------------------------------------------------------- *)

(* Render a saved telemetry export (run --telemetry FILE) as per-core
   phase strips plus gauge sparklines. *)
let top_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Telemetry JSON written by 'run --telemetry FILE'.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print one frame (the newest sample) instead of the full \
                timeline.")
  in
  let width =
    Arg.(
      value
      & opt (pos_int_conv "--width") 64
      & info [ "width" ] ~docv:"N"
          ~doc:"Timeline columns: the newest N samples are shown.")
  in
  let spark_ramp = " .:-=+*#" in
  let exception Bad of string in
  let ok = function Ok v -> v | Error m -> raise (Bad m) in
  let ring doc name =
    let r = ok (Json.member name doc) in
    let channels =
      List.map
        (fun c -> ok (Json.to_str c))
        (ok (Json.to_list (ok (Json.member "channels" r))))
    in
    let rows =
      List.map
        (fun row -> List.map (fun c -> ok (Json.to_int c)) (ok (Json.to_list row)))
        (ok (Json.to_list (ok (Json.member "rows" r))))
    in
    List.iter
      (fun row ->
        if List.length row <> 1 + List.length channels then
          raise
            (Bad
               (Printf.sprintf "%s: a row holds %d values, not a time and %d \
                                channels"
                  name (List.length row) (List.length channels))))
      rows;
    let dropped =
      (* Older exports (pre-v6 tooling) may lack the member; treat as
         exact rather than refusing to render. *)
      match Result.bind (Json.member "dropped" r) Json.to_int with
      | Ok d -> d
      | Error _ -> 0
    in
    (channels, rows, dropped)
  in
  let action file once width =
    match
      (* [Telemetry.write] picks the CSV export by the .csv suffix. *)
      if Filename.check_suffix file ".csv" then
        raise
          (Bad
             "top reads the JSON telemetry export, not the CSV one; record \
              the run with a .json name (run --telemetry FILE.json)");
      let doc = ok (Json.of_string (read_file file)) in
      let interval = ok (Result.bind (Json.member "interval" doc) Json.to_int) in
      let samples = ok (Result.bind (Json.member "samples" doc) Json.to_int) in
      let cores, phase_rows, phase_dropped = ring doc "phases" in
      (* [ring] checked the width: every row is a time and its codes. *)
      List.iter
        (fun row ->
          List.iter
            (fun p ->
              if p < 0 || p >= Runtime.num_phases then
                raise
                  (Bad
                     (Printf.sprintf "phase code %d is not one of 0-%d" p
                        (Runtime.num_phases - 1))))
            (List.tl row))
        phase_rows;
      let gauge_names, gauge_rows, gauge_dropped = ring doc "gauges" in
      if List.length gauge_rows <> List.length phase_rows then
        raise (Bad "the phase and gauge rings hold different sample counts");
      ( interval,
        samples,
        cores,
        phase_rows,
        gauge_names,
        gauge_rows,
        phase_dropped + gauge_dropped )
    with
    | exception Bad msg -> `Error (false, file ^ ": " ^ msg)
    | exception Sys_error msg -> `Error (false, msg)
    | interval, samples, cores, phase_rows, gauge_names, gauge_rows, dropped ->
      if phase_rows = [] then `Error (false, file ^ ": no samples")
      else begin
        Printf.printf "# %s: interval %d cycles, %d samples\n" file interval
          samples;
        if dropped > 0 then
          Printf.printf
            "# WARNING: ring overflow dropped %d older samples — the \
             timeline starts at the oldest retained sample, not at t=0; \
             re-record with a larger --sample-interval for full coverage\n"
            dropped;
        if once then begin
          (* One frame: the newest sample of each ring. *)
          let last l = List.nth l (List.length l - 1) in
          let row = last phase_rows in
          let time, phases =
            match row with t :: ps -> (t, ps) | [] -> (0, [])
          in
          Printf.printf "t=%d\n" time;
          List.iteri
            (fun i p ->
              Printf.printf "  %-8s %s\n"
                (List.nth cores i)
                (Runtime.phase_label p))
            phases;
          let grow = match last gauge_rows with _ :: gs -> gs | [] -> [] in
          List.iteri
            (fun i v ->
              Printf.printf "  %-14s %d\n" (List.nth gauge_names i) v)
            grow
        end
        else begin
          (* Timeline: newest [width] samples, one phase strip per core
             and one scaled sparkline per gauge. *)
          let rows = Array.of_list phase_rows in
          let n = Array.length rows in
          let first = max 0 (n - width) in
          let shown = n - first in
          let t0 = List.hd rows.(first) and t1 = List.hd rows.(n - 1) in
          Printf.printf "# showing %d of %d retained samples, t=%d..%d\n"
            shown n t0 t1;
          List.iteri
            (fun c name ->
              let strip =
                String.init shown (fun s ->
                    Runtime.phase_char (List.nth rows.(first + s) (c + 1)))
              in
              Printf.printf "%-14s %s\n" name strip)
            cores;
          Printf.printf "%-14s %s\n" "phases"
            (String.concat " "
               (List.init Runtime.num_phases (fun p ->
                    Printf.sprintf "%c=%s" (Runtime.phase_char p)
                      (Runtime.phase_label p))));
          let grows = Array.of_list gauge_rows in
          List.iteri
            (fun g name ->
              let value s = List.nth grows.(first + s) (g + 1) in
              let vmax = ref 0 in
              for s = 0 to shown - 1 do
                vmax := max !vmax (value s)
              done;
              let strip =
                String.init shown (fun s ->
                    if !vmax = 0 then ' '
                    else
                      spark_ramp.[value s
                                  * (String.length spark_ramp - 1)
                                  / !vmax])
              in
              Printf.printf "%-14s %s (max %d)\n" name strip !vmax)
            gauge_names
        end;
        `Ok ()
      end
  in
  let term = Term.(ret (const action $ file $ once $ width)) in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Render a saved telemetry export as per-core phase strips and \
             gauge sparklines ('--once' prints just the newest sample)")
    term

(* --- cache --------------------------------------------------------------- *)

let cache_cmd =
  let action_t =
    Arg.(
      required
      & pos 0 (some (enum [ ("stats", `Stats); ("clear", `Clear) ])) None
      & info [] ~docv:"ACTION" ~doc:"Either 'stats' or 'clear'.")
  in
  let action act cache_dir =
    let cache = Cache.create ~dir:(resolve_cache_dir cache_dir) () in
    (match act with
    | `Stats ->
      let st = Cache.disk_stats cache in
      Printf.printf "directory     %s\n" (Cache.dir cache);
      Printf.printf "schema        v%s\n" Cache.schema_version;
      Printf.printf "entries       %d (%d bytes)\n" st.Cache.entries
        st.Cache.bytes;
      Printf.printf "stale entries %d (other schema versions)\n"
        st.Cache.stale_entries;
      Printf.printf "lifetime      %d hits, %d misses, %d stores\n"
        st.Cache.lifetime_hits st.Cache.lifetime_misses
        st.Cache.lifetime_stores
    | `Clear ->
      let removed = Cache.clear cache in
      Printf.printf "removed %d entries from %s\n" removed (Cache.dir cache));
    `Ok ()
  in
  let term = Term.(ret (const action $ action_t $ cache_dir_t)) in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Inspect ('stats') or empty ('clear') the on-disk result cache")
    term

(* --- list / params ------------------------------------------------------ *)

let list_cmd =
  let action () =
    Printf.printf "systems (Table II):\n";
    List.iter (Printf.printf "  %s\n") Lockiller.systems;
    Printf.printf "\nhybrid-TM comparators (docs/HYBRID.md):\n";
    List.iter (Printf.printf "  %s\n") Lockiller.hybrid_systems;
    Printf.printf "\nworkloads (STAMP):\n";
    List.iter (Printf.printf "  %s\n") Lockiller.workloads;
    Printf.printf "\nextra workloads (outside the paper's set):\n";
    List.iter (Printf.printf "  %s\n") Lockiller.Stamp.Suite.extra_names;
    Printf.printf "\nexperiments:\n";
    List.iter
      (fun e ->
        Printf.printf "  %-10s %s\n" e.Experiments.id e.Experiments.artefact)
      Experiments.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List systems, workloads and experiments")
    Term.(const action $ const ())

let params_cmd =
  let action cache cores =
    let machine = Config.machine ~cache ~cores () in
    List.iter
      (fun (k, v) -> Printf.printf "%-24s %s\n" k v)
      (Config.table1 machine)
  in
  Cmd.v
    (Cmd.info "params" ~doc:"Print the machine parameters (Table I)")
    Term.(const action $ cache_t $ cores_t)

let main =
  let doc = "LockillerTM best-effort HTM simulator" in
  Cmd.group
    (Cmd.info "lockiller_sim" ~version:Lockiller.version ~doc)
    [ run_cmd; profile_cmd; check_cmd; experiment_cmd; sweep_cmd; trace_cmd;
      custom_cmd; gen_trace_cmd; replay_cmd; compare_cmd; top_cmd; cache_cmd;
      list_cmd; params_cmd ]

let () = exit (Cmd.eval main)
