(* End-to-end benchmark of the simulator.

   Five fixed workloads (README.md says why each is in the set). Every
   repeat runs in a fresh child process, one child at a time, so heap
   growth and peak RSS belong to one run. The parent prints every metric
   by name and unit (median, quartiles, min, max, n), writes
   BENCH_e2e.json and ends with a one-line JSON summary.

   With --trace 1 each workload gets one extra instrumented run that
   records per-layer numbers and spans. The spans are written as a
   Chrome trace (BENCH_e2e.trace.json), and their self times are
   printed. The instrumentation only wraps calls from this file into the
   simulator's public API: Runner.run/replay, the on_runtime hook, a
   Sim observer, Experiments, Workload.generate, Stream.fold,
   Oracle.verify, Perf.totals and the runtime/protocol/network Stats.

   Usage, from the repository root:
     dune exec e2ebench/e2e.exe                          # 5 repeats each
     dune exec e2ebench/e2e.exe -- --trace 1             # plus traced runs
     dune exec e2ebench/e2e.exe -- --workload ssca2-256c --seed 2
     dune exec e2ebench/e2e.exe -- --repeats 3 --seconds 10
     dune exec e2ebench/e2e.exe -- --smoke               # tiny sizes *)

module Json = Lockiller.Sim.Json
module Runner = Lockiller.Sim.Runner
module Config = Lockiller.Sim.Config
module Experiments = Lockiller.Sim.Experiments
module Report = Lockiller.Sim.Report
module Perf = Lockiller.Sim.Perf
module Workload_source = Lockiller.Sim.Workload_source
module Sim = Lockiller.Engine.Sim
module Stats = Lockiller.Engine.Stats
module Runtime = Lockiller.Mechanisms.Runtime
module Sysconf = Lockiller.Mechanisms.Sysconf
module Protocol = Lockiller.Coherence.Protocol
module Network = Lockiller.Mesh.Network
module Oracle = Lockiller.Htm.Oracle
module Accounting = Lockiller.Cpu.Accounting
module Workload = Lockiller.Stamp.Workload
module Suite = Lockiller.Stamp.Suite
module Gen = Lockiller.Trace.Gen
module Stream = Lockiller.Trace.Stream

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs t0 t1 = float_of_int (t1 - t0) *. 1e-9

(* --- workloads ----------------------------------------------------------- *)

type shape =
  | Sweep of { scale : float; cores : int; threads : int list }
  | Closed of {
      system : string;
      app : string;
      threads : int;
      cores : int;
      scale : float;
    }
  | Replay of { users : int; duration : int; threads : int; cores : int }

(* (name, full size, --smoke size). The full sizes keep every single
   run at 4-6 s on a 2-CPU host: long enough that the seed's effect on
   the amount of simulated work averages out. The sweep takes about
   11 s at its default of one domain. *)
let workloads =
  [
    ( "fig7-sweep",
      Sweep { scale = 0.25; cores = 32; threads = [ 2; 4; 8; 16; 32 ] },
      Sweep { scale = 0.02; cores = 4; threads = [ 2 ] } );
    ( "intruder-32c",
      Closed
        {
          system = "LockillerTM";
          app = "intruder";
          threads = 32;
          cores = 32;
          scale = 16.;
        },
      Closed
        {
          system = "LockillerTM";
          app = "intruder";
          threads = 4;
          cores = 4;
          scale = 0.2;
        } );
    ( "ssca2-256c",
      Closed
        {
          system = "LockillerTM";
          app = "ssca2";
          threads = 128;
          cores = 256;
          scale = 16.;
        },
      Closed
        {
          system = "LockillerTM";
          app = "ssca2";
          threads = 8;
          cores = 16;
          scale = 0.2;
        } );
    ( "tl2-vacation",
      Closed
        {
          system = "SW-TL2";
          app = "vacation";
          threads = 32;
          cores = 32;
          scale = 8.;
        },
      Closed
        {
          system = "SW-TL2";
          app = "vacation";
          threads = 4;
          cores = 4;
          scale = 0.2;
        } );
    ( "replay-burst",
      Replay { users = 3000; duration = 3_000_000; threads = 32; cores = 32 },
      Replay { users = 300; duration = 200_000; threads = 4; cores = 4 } );
  ]

let workload_names = List.map (fun (n, _, _) -> n) workloads

let shape_of ~smoke name =
  match List.find_opt (fun (n, _, _) -> n = name) workloads with
  | Some (_, full, small) -> if smoke then small else full
  | None -> invalid_arg ("unknown workload " ^ name)

let find_system name =
  match Sysconf.find name with
  | Some s -> s
  | None -> failwith ("unknown system " ^ name)

let find_app name =
  match Suite.find name with
  | Some w -> w
  | None -> failwith ("unknown STAMP workload " ^ name)

(* The replay trace lives in the working directory, named after the
   child that owns it, so the parent can remove it if the child dies. *)
let trace_file pid = Printf.sprintf "e2e-replay.%d.lkt" pid

(* --- metrics --------------------------------------------------------------

   A child reports raw numbers ([values]), the simulated counts of its
   run ([counts]) and, when traced, per-layer numbers ([layers]) and
   spans. Everything derived is computed in the parent, from these
   tables. *)

type span = { sname : string; parent : string; start_ns : int; stop_ns : int }

type sample = {
  values : (string * float) list;
  counts : (string * float) list;
  layers : (string * float) list;
  digest : string;
  spans : span list;
}

let get s key =
  match List.assoc_opt key s.values with
  | Some v -> v
  | None -> failwith ("child result lacks " ^ key)

let ratio a b = if b = 0. then None else Some (a /. b)

(* End-to-end metrics: (name, unit, value of one repeat). *)
let e2e_metrics =
  [
    ("wall_s", "s", fun s -> Some (get s "wall_s"));
    ("setup_s", "s", fun s -> Some (get s "setup_s"));
    ( "sim_mcycles_per_s",
      "Mcycle/s",
      fun s ->
        Option.map
          (fun r -> r /. 1e6)
          (ratio (get s "cycles") (get s "engine_s"))
    );
    ("peak_rss_mb", "MB", fun s -> Some (get s "peak_rss_mb"));
  ]

(* Simulated counts: (name, unit). Deterministic for a given commit,
   workload and seed; a change to the simulator alone must leave every
   one of them identical. *)
let count_metrics =
  [
    ("engine.events", "count");
    ("htm.oracle_sections", "count");
    ("htm.spilled_lines", "count");
    ("htm.sw_commits", "count");
    ("htm.clock_advances", "count");
    ("lockiller.commit_rate", "ratio");
    ("lockiller.aborts", "count");
    ("lockiller.rejects", "count");
    ("lockiller.parks", "count");
    ("lockiller.wakeups", "count");
    ("lockiller.lock_commits", "count");
    ("lockiller.wasted_cycles", "cycles");
    ("coherence.l1_hits", "count");
    ("coherence.l1_misses", "count");
    ("coherence.llc_misses", "count");
    ("coherence.invalidations", "count");
    ("coherence.rejects", "count");
    ("coherence.writebacks", "count");
    ("mesh.messages", "count");
    ("mesh.flits", "count");
    ("mesh.queueing_cycles", "cycles");
    ("cpu.cycles", "cycles");
    ("cpu.waitlock_cycles", "cycles");
    ("cpu.aborted_cycles", "cycles");
  ]

let median_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(n=4), so spreads read the same both ways. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* Per-layer metrics: (name, unit, value for one workload). Engine, gc
   and pool figures are medians over the untraced repeats (no hook
   timing runs there); the rest come from the traced run. [None] means
   the workload does not exercise that layer (README.md has the
   matrix). *)
let per_layer_metrics =
  let over_repeats f samples _ =
    match List.filter_map f samples with
    | [] -> None
    | xs -> Some (median_of xs)
  in
  let traced key _ t = Option.bind t (fun t -> List.assoc_opt key t.layers) in
  let counted key samples _ =
    match samples with s :: _ -> List.assoc_opt key s.counts | [] -> None
  in
  [
    ("sim.finish_s", "s", traced "sim.finish_s");
    ("sim.harness_frac", "ratio", traced "sim.harness_frac");
    ( "sim.pool_busy_frac",
      "ratio",
      over_repeats (fun s ->
          ratio (get s "engine_s") (get s "jobs" *. get s "wall_s")) );
    ("sim.sims", "count", over_repeats (fun s -> Some (get s "sims")));
    ("stamp.generate_s", "s", traced "stamp.generate_s");
    ("stamp.generate_words", "words", traced "stamp.generate_words");
    ("trace.gen_s", "s", traced "trace.gen_s");
    ("trace.decode_ns_per_record", "ns", traced "trace.decode_ns_per_record");
    ( "trace.decode_words_per_record",
      "words",
      traced "trace.decode_words_per_record" );
    ("engine.run_s", "s", over_repeats (fun s -> Some (get s "engine_s")));
    ( "engine.events_per_tx",
      "events/tx",
      over_repeats (fun s -> ratio (get s "events") (get s "txs")) );
    ( "engine.ns_per_event",
      "ns",
      over_repeats (fun s ->
          ratio (get s "engine_s" *. 1e9) (get s "events")) );
    ( "engine.words_per_event",
      "words",
      over_repeats (fun s -> ratio (get s "minor_words") (get s "events")) );
    ("engine.event_ns_p50", "ns", traced "engine.event_ns_p50");
    ("engine.event_ns_p99", "ns", traced "engine.event_ns_p99");
    ("engine.event_ns_max", "ns", traced "engine.event_ns_max");
    ( "gc.minor_collections",
      "count",
      over_repeats (fun s -> Some (get s "gc_minor")) );
    ( "gc.major_collections",
      "count",
      over_repeats (fun s -> Some (get s "gc_major")) );
    ( "gc.promoted_words_per_event",
      "words",
      over_repeats (fun s -> ratio (get s "gc_promoted_words") (get s "events"))
    );
    ( "gc.top_heap_mb",
      "MB",
      over_repeats (fun s -> Some (get s "gc_top_heap_mb")) );
    ("htm.oracle_verify_s", "s", traced "htm.oracle_verify_s");
  ]
  @ List.map (fun (name, unit) -> (name, unit, counted name)) count_metrics
  @ [
      ( "trace_overhead",
        "ratio",
        fun samples traced ->
          Option.bind traced (fun t ->
              match samples with
              | [] -> None
              | _ ->
                ratio (get t "wall_s")
                  (median_of (List.map (fun s -> get s "wall_s") samples))) );
    ]

(* --- one repeat (child process) ------------------------------------------ *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM line in /proc/self/status"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* Simulated counts carried by Runner.result, summed over [results]
   (one result for a single run, the whole grid for the sweep). *)
let result_counts results =
  let sum f =
    List.fold_left (fun acc r -> acc +. float_of_int (f r)) 0. results
  in
  let cat c r = List.assoc c r.Runner.breakdown in
  [
    ("htm.oracle_sections", sum (fun r -> r.Runner.oracle_sections));
    ("htm.spilled_lines", sum (fun r -> r.Runner.spilled_lines));
    ("htm.sw_commits", sum (fun r -> r.Runner.sw_commits));
    ("htm.clock_advances", sum (fun r -> r.Runner.clock_advances));
    ( "lockiller.commit_rate",
      List.fold_left (fun acc r -> acc +. r.Runner.commit_rate) 0. results
      /. float_of_int (List.length results) );
    ("lockiller.aborts", sum (fun r -> r.Runner.aborts));
    ("lockiller.rejects", sum (fun r -> r.Runner.rejects));
    ("lockiller.parks", sum (fun r -> r.Runner.parks));
    ("lockiller.wakeups", sum (fun r -> r.Runner.wakeups));
    ("lockiller.lock_commits", sum (fun r -> r.Runner.lock_commits));
    ("lockiller.wasted_cycles", sum (fun r -> r.Runner.wasted_cycles));
    ("mesh.messages", sum (fun r -> r.Runner.network_messages));
    ("mesh.flits", sum (fun r -> r.Runner.network_flits));
    ("cpu.cycles", sum (fun r -> r.Runner.cycles));
    ("cpu.waitlock_cycles", sum (cat Accounting.Wait_lock));
    ("cpu.aborted_cycles", sum (cat Accounting.Aborted));
  ]

(* Counts only the runtime's protocol and network Stats groups hold. *)
let fabric_counts rt =
  let proto = Runtime.protocol rt in
  let counters = Stats.counters (Protocol.stats proto) in
  let c name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name counters))
  in
  [
    ("coherence.l1_hits", c "l1_hits");
    ("coherence.l1_misses", c "l1_misses");
    ("coherence.llc_misses", c "llc_misses");
    ("coherence.invalidations", c "invalidations");
    ( "coherence.rejects",
      c "owner_rejects" +. c "sharer_rejects" +. c "signature_rejects" );
    ("coherence.writebacks", c "writebacks");
    ( "mesh.queueing_cycles",
      float_of_int (Network.queueing_cycles (Protocol.network proto)) );
  ]

let txs r =
  r.Runner.htm_commits + r.Runner.stl_commits + r.Runner.lock_commits
  + r.Runner.sw_commits

(* What a measured run hands back to [child]. *)
type run = {
  wall_s : float;
  setup_s : float;
  sim_digest : string;
  results : Runner.result list;
  fabric : (string * float) list;
  layers : (string * float) list;
}

let spans = ref []

let span ~parent sname f =
  let start_ns = now_ns () in
  let x = f () in
  spans := { sname; parent; start_ns; stop_ns = now_ns () } :: !spans;
  x

(* Time [f] and the minor words it allocates. *)
let costed ~parent name f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let x = span ~parent name f in
  (x, secs t0 (now_ns ()), Gc.minor_words () -. w0)

(* One Runner call. The on_runtime hook marks the end of set-up; in a
   traced run it also installs a Sim observer that feeds the host time
   between consecutive events into a histogram, and the oracle is
   verified once more on its own afterwards. *)
let single_run ~traced ~name call =
  let runtime = ref None and hook_ns = ref 0 and last_ns = ref 0 in
  let event_ns = Stats.hdr (Stats.group "e2e") "event_ns" in
  let on_runtime rt =
    hook_ns := now_ns ();
    runtime := Some rt;
    if traced then
      Sim.set_observer
        (Protocol.sim (Runtime.protocol rt))
        (Some
           (fun () ->
             let t = now_ns () in
             if !last_ns > 0 then Stats.record event_ns (t - !last_ns);
             last_ns := t))
  in
  let t0 = now_ns () in
  let result = call on_runtime in
  let t1 = now_ns () in
  let rt = Option.get !runtime in
  let wall_s = secs t0 t1 and setup_s = secs t0 !hook_ns in
  let engine_s = (Perf.totals ()).Perf.total_wall_seconds in
  let layers =
    if not traced then []
    else begin
      (* The engine ends at the last observed event; the gap between the
         hook and the engine start (spawning cores) stays runner.run's
         self time. *)
      let engine_stop = if !last_ns > 0 then !last_ns else t1 in
      let engine_start =
        max !hook_ns (engine_stop - int_of_float (engine_s *. 1e9))
      in
      let mk sname parent start_ns stop_ns =
        { sname; parent; start_ns; stop_ns }
      in
      spans :=
        [
          mk "runner.run" name t0 t1;
          mk "sim.setup" "runner.run" t0 !hook_ns;
          mk "engine.run" "runner.run" engine_start engine_stop;
          mk "sim.finish" "runner.run" engine_stop t1;
        ]
        @ !spans;
      let verify_s =
        match Runtime.oracle rt with
        | None -> []
        | Some o ->
          let ok, s, _ =
            costed ~parent:name "htm.oracle_verify" (fun () -> Oracle.verify o)
          in
          if Result.is_error ok then
            failwith "serializability oracle failed on re-verification";
          [ ("htm.oracle_verify_s", s) ]
      in
      let pct p = float_of_int (Stats.percentile event_ns p) in
      [
        ("sim.finish_s", wall_s -. setup_s -. engine_s);
        ("sim.harness_frac", 1. -. (engine_s /. wall_s));
        ("engine.event_ns_p50", pct 50.);
        ("engine.event_ns_p99", pct 99.);
        ( "engine.event_ns_max",
          float_of_int (Option.value ~default:0 (Stats.hdr_max event_ns)) );
      ]
      @ verify_s
    end
  in
  {
    wall_s;
    setup_s;
    sim_digest = Digest.to_hex (Digest.string (Runner.result_to_json result));
    results = [ result ];
    fabric = fabric_counts rt;
    layers;
  }

let closed_run ~traced ~seed ~name ~system ~app ~threads ~cores ~scale =
  let sysconf = find_system system and workload = find_app app in
  let options =
    {
      Runner.default_options with
      seed;
      scale;
      machine = Config.machine ~cores ();
    }
  in
  let run =
    single_run ~traced ~name (fun on_runtime ->
        Runner.run ~options:{ options with on_runtime } ~sysconf ~workload
          ~threads ())
  in
  if not traced then run
  else
    let _, s, words =
      costed ~parent:name "stamp.generate" (fun () ->
          Workload.generate workload ~threads ~seed ~scale)
    in
    {
      run with
      layers =
        ("stamp.generate_s", s)
        :: ("stamp.generate_words", words)
        :: run.layers;
    }

let write_trace file ~seed ~users ~duration =
  Out_channel.with_open_bin file (fun oc ->
      let w = Stream.writer_to_channel Stream.Binary oc in
      let emit r =
        match Stream.write w r with Ok () -> () | Error e -> failwith e
      in
      match Gen.generate { Gen.default with users; duration } ~seed ~emit with
      | Ok _ -> flush oc
      | Error e -> failwith e)

let with_reader file f =
  In_channel.with_open_bin file (fun ic ->
      match Stream.reader_of_channel ~name:file ic with
      | Ok reader -> f reader
      | Error e -> failwith e)

let replay_run ~traced ~seed ~name ~users ~duration ~threads ~cores =
  let file = trace_file (Unix.getpid ()) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      (* Generated before timing starts; timed only as its own span. *)
      let (), gen_s, _ =
        costed ~parent:name "trace.gen" (fun () ->
            write_trace file ~seed ~users ~duration)
      in
      let body = find_app "vacation" in
      let run =
        with_reader file (fun reader ->
            let open_loop =
              {
                Workload_source.trace_name = name;
                next = (fun () -> Stream.read reader);
                body;
              }
            in
            single_run ~traced ~name (fun on_runtime ->
                Runner.replay
                  ~options:
                    {
                      Runner.default_options with
                      seed;
                      machine = Config.machine ~cores ();
                      on_runtime;
                    }
                  ~sysconf:Sysconf.lockiller ~open_loop ~threads ()))
      in
      if not traced then run
      else
        let records, s, words =
          with_reader file (fun reader ->
              costed ~parent:name "trace.decode" (fun () ->
                  Stream.fold reader ~init:0 ~f:(fun n _ -> n + 1)))
        in
        let n = float_of_int (Result.fold ~ok:Fun.id ~error:failwith records) in
        {
          run with
          layers =
            ("trace.gen_s", gen_s)
            :: ("trace.decode_ns_per_record", s *. 1e9 /. n)
            :: ("trace.decode_words_per_record", words /. n)
            :: run.layers;
        })

(* The fig7 sweep. Set-up is everything before the first simulation
   starts: the context, the 405-job plan and each job's cache key. It
   takes milliseconds, so it is timed five times. The per-simulation
   hooks are out of reach through Experiments, so the sweep has no
   setup, finish, event-time or oracle figures per simulation. *)
let sweep_run ~traced ~seed ~name ~jobs ~scale ~cores ~threads =
  let context () =
    Experiments.make_context ~seed ~scale ~cores ~threads ~jobs ()
  in
  let plan ctx = Experiments.fig7.Experiments.plan ctx in
  let setups =
    List.init 5 (fun _ ->
        let start_ns = now_ns () in
        let ctx = context () in
        List.iter (fun j -> ignore (Experiments.job_key ctx j)) (plan ctx);
        { sname = "sim.setup"; parent = name; start_ns; stop_ns = now_ns () })
  in
  let setup_s =
    median_of (List.map (fun s -> secs s.start_ns s.stop_ns) setups)
  in
  spans := List.nth setups 4 :: !spans;
  let ctx = context () in
  let t0 = now_ns () in
  let tables =
    span ~parent:name "runner.run" (fun () ->
        Experiments.execute ctx Experiments.fig7)
  in
  let wall_s = secs t0 (now_ns ()) in
  let results = List.map (Experiments.run_job ctx) (plan ctx) in
  let layers =
    if not traced then []
    else
      (* Each distinct program the grid simulates, generated once. *)
      let (), s, words =
        costed ~parent:name "stamp.generate" (fun () ->
            List.iter
              (fun w ->
                List.iter
                  (fun t ->
                    ignore (Workload.generate w ~threads:t ~seed ~scale))
                  (Experiments.thread_counts ctx))
              Suite.all)
      in
      let engine_s = (Perf.totals ()).Perf.total_wall_seconds in
      [
        ("stamp.generate_s", s);
        ("stamp.generate_words", words);
        ("sim.harness_frac", 1. -. (engine_s /. wall_s));
      ]
  in
  {
    wall_s;
    setup_s;
    sim_digest =
      Digest.to_hex
        (Digest.string (String.concat "\n" (List.map Report.to_json tables)));
    results;
    fabric = [];
    layers;
  }

let json_of_span s =
  Json.Obj
    [
      ("name", Json.String s.sname);
      ("parent", Json.String s.parent);
      ("start_ns", Json.Int s.start_ns);
      ("stop_ns", Json.Int s.stop_ns);
    ]

let floats kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs)

(* Run one repeat and print its sample as one JSON line. *)
let child ~name ~seed ~smoke ~jobs ~traced =
  let t0 = now_ns () in
  let run =
    match shape_of ~smoke name with
    | Sweep { scale; cores; threads } ->
      sweep_run ~traced ~seed ~name ~jobs ~scale ~cores ~threads
    | Closed { system; app; threads; cores; scale } ->
      closed_run ~traced ~seed ~name ~system ~app ~threads ~cores ~scale
    | Replay { users; duration; threads; cores } ->
      replay_run ~traced ~seed ~name ~users ~duration ~threads ~cores
  in
  spans :=
    { sname = name; parent = ""; start_ns = t0; stop_ns = now_ns () }
    :: !spans;
  let perf = Perf.totals () and gc = Gc.quick_stat () in
  let counts =
    let known =
      (("engine.events", float_of_int perf.Perf.total_events)
      :: result_counts run.results)
      @ run.fabric
    in
    List.filter_map
      (fun (n, _) -> Option.map (fun v -> (n, v)) (List.assoc_opt n known))
      count_metrics
  in
  let jobs = match shape_of ~smoke name with Sweep _ -> jobs | _ -> 1 in
  let values =
    [
      ("wall_s", run.wall_s);
      ("setup_s", run.setup_s);
      ("engine_s", perf.Perf.total_wall_seconds);
      ("cycles", float_of_int perf.Perf.total_cycles);
      ("events", float_of_int perf.Perf.total_events);
      ("minor_words", perf.Perf.total_minor_words);
      ("sims", float_of_int perf.Perf.runs);
      ("jobs", float_of_int jobs);
      ( "txs",
        float_of_int
          (List.fold_left (fun acc r -> acc + txs r) 0 run.results) );
      ("gc_minor", float_of_int gc.Gc.minor_collections);
      ("gc_major", float_of_int gc.Gc.major_collections);
      ("gc_promoted_words", gc.Gc.promoted_words);
      ( "gc_top_heap_mb",
        float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
      ("peak_rss_mb", peak_rss_mb ());
    ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("values", floats values);
            ("counts", floats counts);
            ("layers", floats run.layers);
            ("digest", Json.String run.sim_digest);
            ( "spans",
              Json.List
                (if not traced then []
                 else
                   (* Start order, enclosing spans first. *)
                   List.sort
                     (fun a b ->
                       match Int.compare a.start_ns b.start_ns with
                       | 0 -> Int.compare b.stop_ns a.stop_ns
                       | c -> c)
                     !spans
                   |> List.map json_of_span) );
          ]))

(* --- the parent ---------------------------------------------------------- *)

let ( let* ) = Result.bind

let sample_of_json v =
  let kvs key =
    let* o = Result.bind (Json.member key v) Json.to_obj in
    List.fold_right
      (fun (k, x) acc ->
        let* acc = acc in
        let* f = Json.to_float x in
        Ok ((k, f) :: acc))
      o (Ok [])
  in
  let* values = kvs "values" in
  let* counts = kvs "counts" in
  let* layers = kvs "layers" in
  let* digest = Result.bind (Json.member "digest" v) Json.to_str in
  let* span_list = Result.bind (Json.member "spans" v) Json.to_list in
  let* spans =
    List.fold_right
      (fun s acc ->
        let* acc = acc in
        let str k = Result.bind (Json.member k s) Json.to_str in
        let int k = Result.bind (Json.member k s) Json.to_int in
        let* sname = str "name" in
        let* parent = str "parent" in
        let* start_ns = int "start_ns" in
        let* stop_ns = int "stop_ns" in
        Ok ({ sname; parent; start_ns; stop_ns } :: acc))
      span_list (Ok [])
  in
  Ok { values; counts; layers; digest; spans }

(* Spawn one child, collect its stdout, kill it at [timeout] seconds,
   and always reap it. *)
let run_child ~timeout args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec pump () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then `Timeout
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> `Timeout
      | _ ->
        let n = Unix.read rd chunk 0 (Bytes.length chunk) in
        if n = 0 then `Eof
        else begin
          Buffer.add_subbytes buf chunk 0 n;
          pump ()
        end
  in
  let outcome = pump () in
  if outcome = `Timeout then
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  let leftover = trace_file pid in
  if Sys.file_exists leftover then Sys.remove leftover;
  match (outcome, status) with
  | `Timeout, _ -> Error (Printf.sprintf "timed out after %.0f s" timeout)
  | `Eof, Unix.WEXITED 0 -> (
    match Json.of_string (Buffer.contents buf) with
    | Error e -> Error ("unreadable child output: " ^ e)
    | Ok v ->
      Result.map_error
        (fun e -> "unreadable child output: " ^ e)
        (sample_of_json v))
  | `Eof, Unix.WEXITED n -> Error (Printf.sprintf "child exited with code %d" n)
  | `Eof, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
    Error (Printf.sprintf "child killed by signal %d" n)

type outcome = {
  name : string;
  attempted : int;
  errors : string list;
  samples : sample list;  (** Untraced repeats that passed every check. *)
  traced : sample option;
  digests : string list;
}

let failed o = List.length o.errors

(* Progress lines, for a terminal only. *)
let progress fmt =
  if Unix.isatty Unix.stderr then Printf.eprintf fmt
  else Printf.ifprintf stderr fmt

let run_workload ~name ~seed ~smoke ~jobs ~repeats ~seconds ~traced
    ~fail_repeat =
  let timeout = if smoke then 30. else 60. in
  (* The traced sweep always runs at jobs=1: Gc counters sum over every
     domain, so words per event would double-count under the pool. *)
  let args ~traced i =
    [ "--child"; name; "--seed"; string_of_int seed ]
    @ [ "--jobs"; (if traced then "1" else string_of_int jobs) ]
    @ (if smoke then [ "--smoke" ] else [])
    @ (if traced then [ "--trace"; "1" ] else [])
    @ if i = fail_repeat then [ "--fail" ] else []
  in
  let t0 = now_ns () in
  let rec loop i acc =
    if i > repeats && secs t0 (now_ns ()) >= seconds then List.rev acc
    else begin
      progress "e2e: %s repeat %d\n%!" name i;
      loop (i + 1) (run_child ~timeout (args ~traced:false i) :: acc)
    end
  in
  let runs = loop 1 [] in
  let traced_run =
    if traced then begin
      progress "e2e: %s traced run\n%!" name;
      Some (run_child ~timeout (args ~traced:true 0))
    end
    else None
  in
  let ok = List.filter_map Result.to_option runs in
  (* Every run must reproduce the first completed run's simulated
     result: its digest and its counts. *)
  let key (s : sample) = (s.digest, s.counts) in
  let reference = Option.map key (List.nth_opt ok 0) in
  let check = function
    | Error e -> Error e
    | Ok s when Some (key s) = reference -> Ok s
    | Ok _ -> Error "simulated result differs from the first repeat"
  in
  let checked = List.map check runs in
  let traced_checked = Option.map check traced_run in
  let all = checked @ Option.to_list traced_checked in
  {
    name;
    attempted = List.length all;
    errors = List.filter_map (function Error e -> Some e | Ok _ -> None) all;
    samples = List.filter_map Result.to_option checked;
    traced = Option.bind traced_checked Result.to_option;
    digests = List.map (fun s -> s.digest) ok;
  }

type summary = {
  median : float;
  q1 : float;
  q3 : float;
  lo : float;
  hi : float;
  values : float list;
}

let summarise = function
  | [] -> None
  | values ->
    let q1, q3 = quartiles values in
    Some
      {
        median = median_of values;
        q1;
        q3;
        lo = List.fold_left Float.min infinity values;
        hi = List.fold_left Float.max neg_infinity values;
        values;
      }

let e2e_summaries o =
  List.map
    (fun (name, unit, f) ->
      (name, unit, summarise (List.filter_map f o.samples)))
    e2e_metrics

let layer_values o =
  List.map
    (fun (name, unit, f) -> (name, unit, f o.samples o.traced))
    per_layer_metrics

let ops_failed_frac o = float_of_int (failed o) /. float_of_int o.attempted

(* Self time: a span's duration minus the part its children cover. *)
let self_ns spans s =
  List.fold_left
    (fun acc c ->
      if c.parent = s.sname then acc - (c.stop_ns - c.start_ns) else acc)
    (s.stop_ns - s.start_ns) spans

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let print_outcome ~seed o =
  Printf.printf "\n== %s (seed %d): %d runs, %d failed, sim_digest %s\n" o.name
    seed o.attempted (failed o)
    (match o.samples with s :: _ -> s.digest | [] -> "-");
  List.iter (fun e -> Printf.printf "  failure: %s\n" e) o.errors;
  List.iter
    (fun (name, unit, s) ->
      match s with
      | None -> Printf.printf "  %-20s -\n" name
      | Some s ->
        Printf.printf
          "  %-20s %10.4g %-8s [q1 %.4g, q3 %.4g]  min %.4g  max %.4g  n=%d\n"
          name s.median unit s.q1 s.q3 s.lo s.hi (List.length s.values))
    (e2e_summaries o);
  Printf.printf "  %-20s %10.4f ratio\n" "ops_failed_frac" (ops_failed_frac o);
  match o.traced with
  | None -> ()
  | Some t ->
    Printf.printf "  per layer:\n";
    List.iter
      (fun (name, unit, v) ->
        Printf.printf "    %-32s %14s %s\n" name
          (match v with Some v -> fmt_value v | None -> "-")
          unit)
      (layer_values o);
    Printf.printf "  spans (self time):\n";
    List.iter
      (fun s ->
        Printf.printf "    %-20s %10.4f s  (self %.4f s)\n" s.sname
          (secs s.start_ns s.stop_ns)
          (secs 0 (self_ns t.spans s)))
      t.spans

let json_of_outcome ~traced o =
  let opt = function Some v -> Json.Float v | None -> Json.Null in
  let metrics =
    List.map
      (fun (name, unit, s) ->
        ( name,
          match s with
          | None ->
            Json.Obj [ ("unit", Json.String unit); ("median", Json.Null) ]
          | Some s ->
            Json.Obj
              [
                ("unit", Json.String unit);
                ("median", Json.Float s.median);
                ("q1", Json.Float s.q1);
                ("q3", Json.Float s.q3);
                ("min", Json.Float s.lo);
                ("max", Json.Float s.hi);
                ("n", Json.Int (List.length s.values));
                ( "values",
                  Json.List (List.map (fun v -> Json.Float v) s.values) );
              ] ))
      (e2e_summaries o)
  in
  let traced_members =
    if not traced then []
    else
      [
        ( "per_layer",
          Json.Obj
            (List.map
               (fun (name, unit, v) ->
                 ( name,
                   Json.Obj [ ("unit", Json.String unit); ("value", opt v) ] ))
               (layer_values o)) );
        ( "spans",
          Json.List
            (match o.traced with
            | None -> []
            | Some t ->
              List.map
                (fun s ->
                  Json.Obj
                    [
                      ("name", Json.String s.sname);
                      ("parent", Json.String s.parent);
                      ("dur_s", Json.Float (secs s.start_ns s.stop_ns));
                      ("self_s", Json.Float (secs 0 (self_ns t.spans s)));
                    ])
                t.spans) );
      ]
  in
  Json.Obj
    ([
       ("name", Json.String o.name);
       ("attempted", Json.Int o.attempted);
       ("failed", Json.Int (failed o));
       ("ops_failed_frac", Json.Float (ops_failed_frac o));
       ("errors", Json.List (List.map (fun e -> Json.String e) o.errors));
       ( "sim_digest",
         match o.samples with
         | s :: _ -> Json.String s.digest
         | [] -> Json.Null );
       ("digests", Json.List (List.map (fun d -> Json.String d) o.digests));
       ("metrics", Json.Obj metrics);
       ( "counts",
         match o.samples with s :: _ -> floats s.counts | [] -> Json.Obj [] );
     ]
    @ traced_members)

(* Chrome trace: one track per workload, times in microseconds from
   [origin]; json_check --trace accepts it. *)
let write_chrome_trace file ~origin outcomes =
  let us ns = Json.Int ((ns - origin) / 1000) in
  let events =
    List.concat
      (List.mapi
         (fun i o ->
           let tid = Json.Int (i + 1) in
           Json.Obj
             [
               ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int 1);
               ("tid", tid);
               ("args", Json.Obj [ ("name", Json.String o.name) ]);
             ]
           ::
           (match o.traced with
           | None -> []
           | Some t ->
             List.map
               (fun s ->
                 Json.Obj
                   [
                     ("name", Json.String s.sname);
                     ("ph", Json.String "X");
                     ("pid", Json.Int 1);
                     ("tid", tid);
                     ("ts", us s.start_ns);
                     ("dur", Json.Int ((s.stop_ns - s.start_ns) / 1000));
                     ( "args",
                       Json.Obj
                         [ ("self_us", Json.Int (self_ns t.spans s / 1000)) ]
                     );
                   ])
               t.spans))
         outcomes)
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        (Json.to_string (Json.Obj [ ("traceEvents", Json.List events) ]));
      output_char oc '\n')

(* The last stdout line: one JSON object with correct, attempted,
   failed and the end-to-end (or, traced, per-layer) metrics. With
   several workloads the metric names are prefixed "<workload>/". *)
let summary_line ~traced outcomes =
  let prefix o name =
    match outcomes with [ _ ] -> name | _ -> o.name ^ "/" ^ name
  in
  let entry name unit v =
    ( name,
      Json.Obj
        [
          ("value", Json.Float (Option.value ~default:0. v));
          ("unit", Json.String unit);
        ] )
  in
  let metrics o =
    if traced then
      List.map
        (fun (name, unit, v) -> entry (prefix o name) unit v)
        (layer_values o)
    else
      List.map
        (fun (name, unit, s) ->
          entry (prefix o name) unit (Option.map (fun s -> s.median) s))
        (e2e_summaries o)
  in
  let attempted = List.fold_left (fun acc o -> acc + o.attempted) 0 outcomes in
  let failed = List.fold_left (fun acc o -> acc + failed o) 0 outcomes in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (failed = 0));
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", Json.Obj (List.concat_map metrics outcomes));
       ])

let usage () =
  prerr_endline
    "usage: e2e.exe [--workload NAME]... [--seed N] [--repeats N]\n\
    \               [--seconds S] [--trace 0|1 | --traced] [--smoke]\n\
    \               [--jobs N] [--out FILE] [--fail-repeat K]";
  Printf.eprintf "workloads: %s\n" (String.concat ", " workload_names);
  exit 2

let () =
  let selected = ref [] and seed = ref 1 and repeats = ref 5 in
  let seconds = ref 0. and traced = ref false and smoke = ref false in
  let jobs = ref 1 and out = ref "BENCH_e2e.json" and fail_repeat = ref (-1) in
  let child_of = ref None and fail = ref false in
  let int what v k =
    match int_of_string_opt v with
    | Some n when n >= k -> n
    | _ ->
      Printf.eprintf "%s wants an integer >= %d, got %S\n" what k v;
      usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if not (List.mem w workload_names) then begin
        Printf.eprintf "unknown workload %S\n" w;
        usage ()
      end;
      selected := !selected @ [ w ];
      parse rest
    | "--seed" :: v :: rest -> seed := int "--seed" v 0; parse rest
    | "--repeats" :: v :: rest -> repeats := int "--repeats" v 1; parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_int (int "--seconds" v 0);
      parse rest
    | "--trace" :: v :: rest -> traced := int "--trace" v 0 <> 0; parse rest
    | "--traced" :: rest -> traced := true; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--jobs" :: v :: rest -> jobs := int "--jobs" v 1; parse rest
    | "--out" :: f :: rest -> out := f; parse rest
    | "--fail-repeat" :: v :: rest ->
      fail_repeat := int "--fail-repeat" v 1;
      parse rest
    | "--child" :: w :: rest -> child_of := Some w; parse rest
    | "--fail" :: rest -> fail := true; parse rest
    | arg :: _ -> Printf.eprintf "unexpected argument %S\n" arg; usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !child_of with
  | Some name ->
    if !fail then begin
      prerr_endline "e2e: deliberate child failure (--fail-repeat)";
      exit 3
    end;
    child ~name ~seed:!seed ~smoke:!smoke ~jobs:!jobs ~traced:!traced
  | None ->
    let names = if !selected = [] then workload_names else !selected in
    let origin = now_ns () in
    let outcomes =
      List.map
        (fun name ->
          let o =
            run_workload ~name ~seed:!seed ~smoke:!smoke ~jobs:!jobs
              ~repeats:!repeats ~seconds:!seconds ~traced:!traced
              ~fail_repeat:!fail_repeat
          in
          print_outcome ~seed:!seed o;
          o)
        names
    in
    Out_channel.with_open_text !out (fun oc ->
        output_string oc
          (Json.to_string_pretty
             (Json.Obj
                [
                  ("seed", Json.Int !seed);
                  ("smoke", Json.Bool !smoke);
                  ("jobs", Json.Int !jobs);
                  ("traced", Json.Bool !traced);
                  ( "workloads",
                    Json.List
                      (List.map (json_of_outcome ~traced:!traced) outcomes) );
                ]));
        output_char oc '\n');
    Printf.printf "\n(report: %s" !out;
    if !traced then begin
      let file = Filename.remove_extension !out ^ ".trace.json" in
      write_chrome_trace file ~origin outcomes;
      Printf.printf ", trace: %s" file
    end;
    print_endline ")";
    print_endline (summary_line ~traced:!traced outcomes)
