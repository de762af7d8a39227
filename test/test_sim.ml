(* Tests of the simulation harness: machine configs, metrics, report
   rendering, the runner's metric collection and the experiment
   definitions (exercised on a small machine so they stay fast). *)

module Config = Lk_sim.Config
module Runner = Lk_sim.Runner
module Metrics = Lk_sim.Metrics
module Report = Lk_sim.Report
module Experiments = Lk_sim.Experiments
module Sysconf = Lk_lockiller.Sysconf
module Suite = Lk_stamp.Suite
module Workload = Lk_stamp.Workload
module Reason = Lk_htm.Reason
module Accounting = Lk_cpu.Accounting
module Protocol = Lk_coherence.Protocol
module L1 = Lk_coherence.L1_cache
module Llc = Lk_coherence.Llc
module Json = Lk_sim.Json
module Pool = Lk_sim.Pool
module Cache = Lk_sim.Cache

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_float = check (Alcotest.float 0.0001)

(* --- Config ------------------------------------------------------------ *)

let test_machine_defaults () =
  let m = Config.machine () in
  check_int "32 cores" 32 m.Config.cores;
  check_int "4 rows" 4 m.Config.rows;
  check_int "8 cols" 8 m.Config.cols;
  check_int "32KB L1" (32 * 1024) m.Config.protocol.Protocol.l1_size;
  check_int "8MB LLC" (8 * 1024 * 1024) m.Config.protocol.Protocol.llc_size

let test_machine_cache_profiles () =
  let small = Config.machine ~cache:Config.Small () in
  check_int "8KB L1" (8 * 1024) small.Config.protocol.Protocol.l1_size;
  check_int "1MB LLC" (1024 * 1024) small.Config.protocol.Protocol.llc_size;
  let large = Config.machine ~cache:Config.Large () in
  check_int "128KB L1" (128 * 1024) large.Config.protocol.Protocol.l1_size;
  check_int "32MB LLC" (32 * 1024 * 1024)
    large.Config.protocol.Protocol.llc_size

let test_machine_small_meshes () =
  List.iter
    (fun (cores, rows, cols) ->
      let m = Config.machine ~cores () in
      check_int "rows" rows m.Config.rows;
      check_int "cols" cols m.Config.cols)
    [ (2, 1, 2); (4, 2, 2); (8, 2, 4); (16, 4, 4) ]

let test_machine_rejects_odd_core_counts () =
  (* Formerly rejected; the general factorisation gives primes a 1xN
     chain. *)
  let m = Config.machine ~cores:3 () in
  check_int "3 cores rows" 1 m.Config.rows;
  check_int "3 cores cols" 3 m.Config.cols;
  Alcotest.check_raises "0 cores"
    (Invalid_argument
       "Config.machine: unsupported core count 0 (supported: 1-1024)")
    (fun () -> ignore (Config.machine ~cores:0 ()));
  Alcotest.check_raises "1025 cores"
    (Invalid_argument
       "Config.machine: unsupported core count 1025 (supported: 1-1024)")
    (fun () -> ignore (Config.machine ~cores:1025 ()))

let test_table1_rows () =
  let m = Config.machine () in
  let rows = Config.table1 m in
  check_int "eleven rows" 11 (List.length rows);
  check_bool "mentions mesh" true
    (List.exists (fun (k, _) -> k = "Topology and Routing") rows)

let test_build () =
  let m = Config.machine ~cores:4 () in
  let _sim, net, proto = Config.build m in
  check_int "tiles" 4
    (Lk_mesh.Topology.tiles (Lk_mesh.Network.topology net));
  check_int "cores" 4 (Protocol.config proto).Protocol.cores

(* Building the Table I machine (32 cores, 32 KB L1s, 8 MB LLC) must be
   nearly free: L1s get their slots on their first insert and LLC sets
   get storage only on theirs, so construction allocates a handful of
   blocks and the built machine holds well under a word per cache
   slot. *)
let test_build_allocation () =
  let m = Config.machine ~cores:32 () in
  ignore (Config.build m);
  let w0 = Gc.minor_words () in
  let _sim, _net, proto = Config.build m in
  let minor = Gc.minor_words () -. w0 in
  check_bool
    (Printf.sprintf "build allocates %.0f minor words (< 20k)" minor)
    true (minor < 20_000.);
  let llc = Protocol.llc proto in
  let ways = (Protocol.config proto).Protocol.llc_ways in
  let slots =
    (32 * L1.sets (Protocol.l1 proto 0) * L1.ways (Protocol.l1 proto 0))
    + (Llc.banks llc * Llc.sets_per_bank llc * ways)
  in
  let per_slot =
    float_of_int (Obj.reachable_words (Obj.repr proto)) /. float_of_int slots
  in
  check_bool
    (Printf.sprintf "protocol holds %.2f words per cache slot (<= 0.5)"
       per_slot)
    true (per_slot <= 0.5);
  (* A fresh LLC grows with the lines it holds, not with its capacity
     or its associativity: k lines in k distinct sets cost one way's
     storage each (a 2-word slot block and a 1-entry directory block,
     with their headers), plus the one shared empty-directory entry. *)
  let before = Obj.reachable_words (Obj.repr llc) in
  let k = 64 in
  for line = 0 to k - 1 do
    Llc.insert llc line
  done;
  let grown = Obj.reachable_words (Obj.repr llc) - before in
  check_bool
    (Printf.sprintf "%d inserts grow the LLC by %d words (<= %d)" k grown
       ((5 * k) + 8))
    true
    (grown <= (5 * k) + 8)

(* Building a 256-core machine and its runtime gives no core cache
   slots or TL2 read and write sets: an L1 gets its slots on its first
   insert, a core its TL2 sets on its first software-path access. So
   each L1 is a few words, not a word per slot, and the TL2 bookkeeping
   is its lock table plus a few words per core. *)
let test_build_per_core_state () =
  let cores = 256 in
  let _sim, _net, protocol = Config.build (Config.machine ~cores ()) in
  let rt =
    Lk_lockiller.Runtime.create ~protocol
      ~store:(Lk_htm.Store.create ~cores)
      ~sysconf:Sysconf.lockiller ~lock_addr:Workload.lock_addr ()
  in
  let l1 = Protocol.l1 protocol 0 in
  let l1_words = ref 0 in
  for core = 0 to cores - 1 do
    l1_words :=
      Int.max !l1_words
        (Obj.reachable_words (Obj.repr (Protocol.l1 protocol core)))
  done;
  check_bool
    (Printf.sprintf "largest L1 holds %d words (<= 16, %d slots)" !l1_words
       (L1.sets l1 * L1.ways l1))
    true (!l1_words <= 16);
  let module Sw_path = Lk_htm.Sw_path in
  let sw_words =
    Obj.reachable_words (Obj.repr (Lk_lockiller.Runtime.sw_path rt))
  in
  let bound = Sw_path.slots + (5 * cores) + 16 in
  check_bool
    (Printf.sprintf "TL2 bookkeeping holds %d words (<= %d)" sw_words bound)
    true (sw_words <= bound)

let test_build_non_divisor_llc () =
  (* 100 directory banks do not divide the 8MB LLC evenly; the bank
     size must round down to whole sets instead of being rejected. *)
  let m = Config.machine ~cores:100 () in
  let _sim, _net, proto = Config.build m in
  check_int "cores" 100 (Protocol.config proto).Protocol.cores

let test_mesh_shape_general () =
  (* Spot-check the nearest-square factorisation, including the shapes
     the old hard-coded table produced (2..64 must not change: cached
     results key on the mesh shape via the machine id). *)
  List.iter
    (fun (cores, rows, cols) ->
      let r, c = Config.mesh_shape cores in
      check_int (string_of_int cores ^ " rows") rows r;
      check_int (string_of_int cores ^ " cols") cols c)
    [
      (1, 1, 1); (2, 1, 2); (4, 2, 2); (6, 2, 3); (7, 1, 7); (12, 3, 4);
      (32, 4, 8); (36, 6, 6); (100, 10, 10); (256, 16, 16); (768, 24, 32);
      (1024, 32, 32);
    ];
  for n = 1 to 128 do
    let r, c = Config.mesh_shape n in
    check_int "rows*cols = cores" n (r * c);
    check_bool "rows <= cols" true (r <= c)
  done;
  Alcotest.check_raises "out of range"
    (Invalid_argument
       "Config.machine: unsupported core count 1025 (supported: 1-1024)")
    (fun () -> ignore (Config.mesh_shape 1025))

(* --- Metrics ------------------------------------------------------------ *)

let test_speedup () =
  check_float "2x" 2.0 (Metrics.speedup ~baseline_cycles:100 ~cycles:50);
  check_float "0.5x" 0.5 (Metrics.speedup ~baseline_cycles:50 ~cycles:100);
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Metrics.speedup: cycle counts must be positive")
    (fun () -> ignore (Metrics.speedup ~baseline_cycles:0 ~cycles:1))

let test_geomean () =
  check_float "of [2;8]" 4.0 (Metrics.geomean [ 2.0; 8.0 ]);
  check_float "empty" 1.0 (Metrics.geomean []);
  check_float "singleton" 3.0 (Metrics.geomean [ 3.0 ]);
  Alcotest.check_raises "non-positive rejected"
    (Invalid_argument "Metrics.geomean: non-positive value") (fun () ->
      ignore (Metrics.geomean [ 1.0; 0.0 ]))

let check_float_opt msg expected got =
  Alcotest.(check (option (float 1e-9))) msg expected got

let test_mean_max () =
  check_float "mean" 2.0 (Metrics.mean [ 1.0; 2.0; 3.0 ]);
  check_float "mean empty" 0.0 (Metrics.mean []);
  check_float_opt "max" (Some 3.0) (Metrics.max_of [ 1.0; 3.0; 2.0 ]);
  check_float_opt "min" (Some 1.0) (Metrics.min_of [ 1.0; 3.0; 2.0 ]);
  check_float_opt "max empty" None (Metrics.max_of []);
  check_float_opt "min empty" None (Metrics.min_of []);
  check_float_opt "max singleton" (Some 7.0) (Metrics.max_of [ 7.0 ]);
  check_float_opt "min singleton" (Some 7.0) (Metrics.min_of [ 7.0 ]);
  check_float "pct" 50.0 (Metrics.pct 0.5)

let prop_geomean_between_min_max =
  QCheck.Test.make ~name:"geomean lies between min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 10) (float_range 0.1 100.0))
    (fun xs ->
      let g = Metrics.geomean xs in
      let mn = List.fold_left min (List.hd xs) xs in
      let mx = List.fold_left max (List.hd xs) xs in
      g >= mn -. 1e-9 && g <= mx +. 1e-9)

(* --- Report ------------------------------------------------------------- *)

let string_contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_report_render () =
  let t =
    Report.table ~title:"T" ~headers:[ "a"; "bbbb" ]
      [ [ "x"; "y" ]; [ "longer"; "z" ] ]
      ~notes:[ "note" ]
  in
  let s = Format.asprintf "%a" Report.pp_table t in
  check_bool "has title" true (string_contains s "== T ==");
  check_bool "has cell" true (string_contains s "longer");
  check_bool "has note" true (string_contains s "note")

let test_report_csv () =
  let t =
    Report.table ~title:"Fig 7: speedup over CGL, 2 threads"
      ~headers:[ "workload"; "speed,up" ]
      [ [ "a"; "1.0" ]; [ "with \"quote\""; "2.0" ] ]
  in
  let csv = Report.to_csv t in
  check_bool "quoted comma header" true (string_contains csv "\"speed,up\"");
  check_bool "quoted quote" true (string_contains csv "\"with \"\"quote\"\"\"");
  check_bool "filename" true
    (Report.csv_filename t = "fig_7_speedup_over_cgl_2_threads.csv")

(* --- Cli ----------------------------------------------------------------- *)

let test_cli_cores () =
  (match Lk_sim.Cli.cores ~what:"--cores" "256" with
  | Ok n -> check_int "parses" 256 n
  | Error e -> Alcotest.fail e);
  (match Lk_sim.Cli.cores ~what:"--cores" "1025" with
  | Error e -> check_bool "error names the range" true (string_contains e "1-1024")
  | Ok _ -> Alcotest.fail "1025 accepted");
  (match Lk_sim.Cli.cores ~what:"--cores" "0" with
  | Error e -> check_bool "error names the flag" true (string_contains e "--cores")
  | Ok _ -> Alcotest.fail "0 accepted");
  match Lk_sim.Cli.cores ~what:"--cores" "many" with
  | Error e -> check_bool "non-integer rejected" true (string_contains e "integer")
  | Ok _ -> Alcotest.fail "junk accepted"

(* --- Runner -------------------------------------------------------------- *)

let quick_machine = Config.machine ~cores:4 ()

(* Scaled-down options for fast runs; [machine_options] keeps the
   default scale. *)
let machine_options = { Runner.default_options with machine = quick_machine }
let quick_options = { machine_options with scale = 0.25 }

let quick_run ?(sysconf = Sysconf.lockiller) ?(threads = 4) workload_name =
  let workload = Option.get (Suite.find workload_name) in
  Runner.run ~options:quick_options ~sysconf ~workload ~threads ()

let test_runner_basic_metrics () =
  let r = quick_run "intruder" in
  check_bool "cycles positive" true (r.Runner.cycles > 0);
  check_bool "commit rate in [0;1]" true
    (r.Runner.commit_rate >= 0.0 && r.Runner.commit_rate <= 1.0);
  check_int "threads recorded" 4 r.Runner.threads;
  check_bool "some commits" true
    (r.Runner.htm_commits + r.Runner.stl_commits + r.Runner.lock_commits > 0);
  check_bool "network traffic" true (r.Runner.network_messages > 0)

let test_runner_breakdown_covers_all_categories () =
  let r = quick_run "genome" in
  check_int "8 categories" 8 (List.length r.Runner.breakdown);
  List.iter
    (fun (_, n) -> check_bool "non-negative" true (n >= 0))
    r.Runner.breakdown

let test_runner_abort_mix_paper_order () =
  let r = quick_run "yada" in
  Alcotest.(check (list string))
    "order" [ "mc"; "lock"; "mutex"; "non_tran"; "of"; "fault"; "valid" ]
    (List.map (fun (reason, _) -> Reason.label reason) r.Runner.abort_mix)

let test_runner_deterministic () =
  let a = quick_run "kmeans+" and b = quick_run "kmeans+" in
  check_int "same cycles" a.Runner.cycles b.Runner.cycles;
  check_int "same aborts" a.Runner.aborts b.Runner.aborts

let test_runner_seed_changes_outcome () =
  let workload = Option.get (Suite.find "kmeans+") in
  let a =
    Runner.run
      ~options:{ quick_options with seed = 1 }
      ~sysconf:Sysconf.baseline ~workload ~threads:4 ()
  in
  let b =
    Runner.run
      ~options:{ quick_options with seed = 2 }
      ~sysconf:Sysconf.baseline ~workload ~threads:4 ()
  in
  check_bool "different cycles" true (a.Runner.cycles <> b.Runner.cycles)

let test_runner_thread_bounds () =
  let workload = Option.get (Suite.find "ssca2") in
  Alcotest.check_raises "too many threads"
    (Invalid_argument "Runner.run: thread count out of range") (fun () ->
      ignore
        (Runner.run ~options:machine_options ~sysconf:Sysconf.cgl ~workload
           ~threads:5 ()))

let test_abort_fraction () =
  let r = quick_run ~sysconf:Sysconf.baseline "yada" in
  let total =
    List.fold_left (fun acc reason -> acc +. Runner.abort_fraction r reason)
      0.0 Reason.all
  in
  if r.Runner.aborts > 0 then
    check (Alcotest.float 0.001) "fractions sum to 1" 1.0 total
  else check (Alcotest.float 0.001) "no aborts" 0.0 total

let test_runner_fault_survival_in_lock_modes () =
  (* yada under full LockillerTM: all faults in TL/STL survive, so the
     only fault aborts are from HTM attempts *)
  let r = quick_run ~sysconf:Sysconf.lockiller "yada" in
  check_bool "completed" true (r.Runner.cycles > 0)

let test_placement_spread () =
  let workload = Option.get (Suite.find "intruder") in
  let compact =
    Runner.run
      ~options:{ quick_options with placement = Runner.Compact }
      ~sysconf:Sysconf.baseline ~workload ~threads:2 ()
  in
  let spread =
    Runner.run
      ~options:{ quick_options with placement = Runner.Spread }
      ~sysconf:Sysconf.baseline ~workload ~threads:2 ()
  in
  (* both complete and conserve (asserted inside run); timings differ
     because the threads sit on different tiles *)
  check_bool "placements differ in timing" true
    (compact.Runner.cycles <> spread.Runner.cycles)

let test_avg_attempts_metric () =
  let r = quick_run ~sysconf:Sysconf.baseline "kmeans+" in
  if r.Runner.htm_commits > 0 then
    check_bool "attempts >= 1 per commit" true
      (r.Runner.avg_attempts_per_commit >= 1.0)

let test_cycle_limit_guard () =
  let workload = Option.get (Suite.find "ssca2") in
  check_bool "tiny limit trips the guard" true
    (match
       Runner.run
         ~options:{ machine_options with cycle_limit = 50 }
         ~sysconf:Sysconf.cgl ~workload ~threads:2 ()
     with
    | exception Failure _ -> true
    | _ -> false)

let test_run_program () =
  let program =
    [|
      [
        {
          Lk_cpu.Program.pre_compute = 5;
          ops = [ Lk_cpu.Program.Incr (64 * 16) ];
          post_compute = 5;
        };
      ];
      [
        {
          Lk_cpu.Program.pre_compute = 5;
          ops = [ Lk_cpu.Program.Incr (64 * 16) ];
          post_compute = 5;
        };
      ];
    |]
  in
  let r =
    Runner.run_program ~options:machine_options ~name:"two-incr"
      ~sysconf:Sysconf.lockiller ~program ()
  in
  check_int "threads from program" 2 r.Runner.threads;
  check_bool "named" true (r.Runner.workload = "two-incr");
  check_bool "oracle ran" true (r.Runner.oracle_sections >= 2)

let test_run_program_rejects_lock_collision () =
  let program =
    [|
      [
        {
          Lk_cpu.Program.pre_compute = 0;
          ops = [ Lk_cpu.Program.Incr 0 ];
          post_compute = 0;
        };
      ];
    |]
  in
  check_bool "lock-line address rejected" true
    (match
       Runner.run_program ~options:machine_options ~sysconf:Sysconf.cgl
         ~program ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Experiments --------------------------------------------------------- *)

let quick_ctx () =
  Experiments.make_context ~scale:0.2 ~cores:4 ~threads:[ 2; 4 ] ()

let test_context_thread_filter () =
  let ctx = Experiments.make_context ~cores:4 ~threads:[ 2; 4; 8; 16 ] () in
  Alcotest.(check (list int)) "filtered" [ 2; 4 ] (Experiments.thread_counts ctx)

let test_experiment_ids_unique () =
  let ids = List.map (fun e -> e.Experiments.id) Experiments.all in
  check_int "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_experiment_find () =
  check_bool "fig7" true (Experiments.find "FIG7" <> None);
  check_bool "unknown" true (Experiments.find "fig99" = None)

let test_result_memoised () =
  let ctx = quick_ctx () in
  let w = Option.get (Suite.find "kmeans") in
  let a = Experiments.result ctx ~sysconf:Sysconf.baseline ~workload:w ~threads:2 () in
  let b = Experiments.result ctx ~sysconf:Sysconf.baseline ~workload:w ~threads:2 () in
  check_bool "same physical result" true (a == b)

let test_speedup_vs_cgl_positive () =
  let ctx = quick_ctx () in
  let w = Option.get (Suite.find "ssca2") in
  let s =
    Experiments.speedup_vs_cgl ctx ~sysconf:Sysconf.lockiller ~workload:w
      ~threads:4 ()
  in
  check_bool "positive" true (s > 0.0)

let test_every_plan_is_exact () =
  (* Every experiment on a tiny machine (9 cores: the torus needs 3x3).
     Recording the plan simulates nothing, and rendering after the
     prefetch asks for nothing outside it: a renderer whose job choice
     depended on result values, or a recorder that dropped a job, would
     simulate more than its plan. [wasted]'s profiled runs bypass the
     plan, so its plan is empty. *)
  List.iter
    (fun e ->
      let id = e.Experiments.id in
      let ctx =
        Experiments.make_context ~scale:0.005 ~cores:9 ~threads:[ 2 ] ~jobs:2
          ()
      in
      let plan = e.Experiments.plan ctx in
      check_int (id ^ ": recording simulates nothing") 0
        (Experiments.simulations ctx);
      let tables = Experiments.execute ctx e in
      if id = "wasted" then check_int "wasted: empty plan" 0 (List.length plan)
      else
        check_int (id ^ ": render stays inside the plan") (List.length plan)
          (Experiments.simulations ctx);
      check_bool (id ^ " renders tables") true (tables <> []);
      List.iter
        (fun t -> check_bool (id ^ " has rows") true (t.Report.rows <> []))
        tables)
    Experiments.all

let test_fig10_renders_on_small_machine () =
  let ctx = quick_ctx () in
  let tables = Experiments.fig10.Experiments.render ctx in
  check_int "one table" 1 (List.length tables);
  (* 9 workloads x 3 systems *)
  check_int "27 rows" 27 (List.length (List.hd tables).Report.rows)

(* --- JSON results API ----------------------------------------------------- *)

let sample_result () =
  let w = Option.get (Suite.find "intruder") in
  Runner.run
    ~options:
      {
        Runner.default_options with
        scale = 0.1;
        machine = Config.machine ~cores:4 ();
      }
    ~sysconf:Sysconf.lockiller ~workload:w ~threads:4 ()

let test_result_json_roundtrip () =
  let r = sample_result () in
  match Runner.result_of_json (Runner.result_to_json r) with
  | Error msg -> Alcotest.fail msg
  | Ok r' -> check_bool "structurally equal" true (r = r')

let test_result_json_fields () =
  (* Every result field appears as a member, floats exactly. *)
  match Json.of_string (Runner.result_to_json (sample_result ())) with
  | Error msg -> Alcotest.fail msg
  | Ok (Json.Obj members) ->
    List.iter
      (fun field ->
        check_bool (field ^ " present") true (List.mem_assoc field members))
      [
        "system"; "workload"; "threads"; "cache"; "cycles"; "commit_rate";
        "htm_commits"; "stl_commits"; "lock_commits"; "sw_commits"; "aborts";
        "abort_mix"; "breakdown"; "rejects"; "parks"; "wakeups";
        "switches_granted"; "switches_denied"; "spilled_lines";
        "clock_advances"; "watchdog_rescues"; "network_messages";
        "network_flits"; "oracle_sections"; "avg_attempts_per_commit";
      ]
  | Ok _ -> Alcotest.fail "expected a JSON object"

(* The decoder names the member it stopped at. The sample carries an
   open-loop block so its members are covered too; a mutation either
   deletes one member or gives it a value of the wrong type (a string,
   or an int where a string is expected). *)
let prop_decoder_names_member =
  let sample =
    {
      (sample_result ()) with
      Runner.open_loop =
        Some
          {
            Runner.arrivals = 9;
            completed = 8;
            max_backlog = 3;
            queue_delay_p50 = 10;
            queue_delay_p95 = 20;
            queue_delay_p99 = 30;
            sojourn_p50 = 40;
            sojourn_p95 = 50;
            sojourn_p99 = 60;
            phase_mix = [ (0, 5); (2, 3) ];
          };
    }
  in
  let encoded = Runner.json_of_result sample in
  let keys = function Json.Obj members -> List.map fst members | _ -> [] in
  (* Every member of the result table, and of the open-loop table under
     its parent. *)
  let paths =
    List.concat_map
      (fun k ->
        match Json.member k encoded with
        | Ok (Json.Obj _ as sub) when k = "open_loop" ->
          [ k ] :: List.map (fun k' -> [ k; k' ]) (keys sub)
        | _ -> [ [ k ] ])
      (keys encoded)
    |> Array.of_list
  in
  let rec mutate f path v =
    match (path, v) with
    | [ k ], Json.Obj members ->
      Json.Obj
        (List.filter_map
           (fun (k', v) ->
             if k' = k then Option.map (fun v -> (k', v)) (f v)
             else Some (k', v))
           members)
    | k :: rest, Json.Obj members ->
      Json.Obj
        (List.map
           (fun (k', v) -> if k' = k then (k', mutate f rest v) else (k', v))
           members)
    | _ -> v
  in
  let quoted name s =
    let q = Printf.sprintf "%S" name in
    let rec find i =
      i + String.length q <= String.length s
      && (String.sub s i (String.length q) = q || find (i + 1))
    in
    find 0
  in
  let rec names path msg =
    match path with
    | [ k ] -> String.starts_with ~prefix:(k ^ ": ") msg || quoted k msg
    | k :: rest ->
      let prefix = k ^ ": " in
      String.starts_with ~prefix msg
      && names rest
           (String.sub msg (String.length prefix)
              (String.length msg - String.length prefix))
    | [] -> false
  in
  QCheck.Test.make ~name:"decoder names the mutated member" ~count:300
    QCheck.(pair (int_bound (Array.length paths - 1)) bool)
    (fun (i, delete) ->
      let path = paths.(i) in
      let f =
        if delete then fun _ -> None
        else function
          | Json.String _ -> Some (Json.Int 0)
          | _ -> Some (Json.String "?")
      in
      match Runner.result_of_json_value (mutate f path encoded) with
      | Ok _ -> QCheck.Test.fail_reportf "%s decoded" (String.concat "." path)
      | Error msg ->
        names path msg
        || QCheck.Test.fail_reportf "%s: error does not name it: %s"
             (String.concat "." path) msg)

let test_result_columns () =
  let r = sample_result () in
  match Runner.columns r with
  | (_, Json.Int v) :: rest ->
    check_int "leading schema column" Lk_sim.Schema.version v;
    check_bool "~schema:false drops only it" true
      (rest = Runner.columns ~schema:false r)
  | _ -> Alcotest.fail "expected a leading schema column"

let test_result_json_rejects_garbage () =
  check_bool "truncated" true
    (Result.is_error (Runner.result_of_json "{\"system\":"));
  check_bool "wrong shape" true (Result.is_error (Runner.result_of_json "[]"))

let test_json_float_roundtrip () =
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
        check_bool (string_of_float f ^ " exact") true (f = f')
      | _ -> Alcotest.fail "float did not round-trip")
    [ 0.1; 1.0; 1.85; 3.0e22; -0.0070000000000000001 ]

let test_report_to_json () =
  let t =
    Report.table ~title:"T" ~headers:[ "a"; "b" ]
      ~notes:[ "n" ]
      [ [ "1"; "2" ]; [ "3"; "4" ] ]
  in
  match Json.of_string (Report.to_json t) with
  | Ok (Json.Obj members) ->
    check_bool "title" true
      (List.assoc "title" members = Json.String "T");
    check_bool "rows" true
      (List.assoc "rows" members
      = Json.List
          [
            Json.List [ Json.String "1"; Json.String "2" ];
            Json.List [ Json.String "3"; Json.String "4" ];
          ])
  | _ -> Alcotest.fail "table did not parse"

(* --- Ledger / Tracing ------------------------------------------------------ *)

module Tracing = Lk_sim.Tracing
module Ledger = Lk_engine.Ledger
module Runtime = Lk_lockiller.Runtime
module Profile = Lk_sim.Profile

(* One observed run: LockillerTM on a small machine with the event
   ledger on (capacity ample enough that nothing is dropped). Intruder
   at the default scale is contended enough to produce aborts, rejects
   and parks while staying fast. *)
let run_with_ledger ?(sysconf = Sysconf.lockiller) ?(workload = "intruder")
    ?(scale = 0.2) ?(threads = 4) () =
  let w = Option.get (Suite.find workload) in
  let ledger = ref None in
  let r =
    Runner.run
      ~options:
        {
          Runner.default_options with
          scale;
          machine = Config.machine ~cores:4 ();
          on_runtime =
            (fun rt ->
              ledger := Some (Runtime.enable_ledger ~capacity:(1 lsl 18) rt));
        }
      ~sysconf ~workload:w ~threads ()
  in
  (r, Option.get !ledger)

(* Records of each kind in the retained stream. *)
let ledger_counts l =
  let n = Array.make (List.length Ledger.kinds) 0 in
  Ledger.iter l (fun ~time:_ ~core:_ ~kind ~arg:_ ->
      let c = Ledger.kind_code kind in
      n.(c) <- n.(c) + 1);
  fun kind -> n.(Ledger.kind_code kind)

(* Fallback-lock dwell rebuilt from the acquire/release pairs. *)
let ledger_lock_dwell l =
  let since = Hashtbl.create 4 and dwell = ref 0 in
  Ledger.iter l (fun ~time ~core ~kind ~arg:_ ->
      match kind with
      | Ledger.Lock_acquire -> Hashtbl.replace since core time
      | Ledger.Lock_release ->
        Option.iter
          (fun t0 -> dwell := !dwell + time - t0)
          (Hashtbl.find_opt since core);
        Hashtbl.remove since core
      | _ -> ());
  !dwell

(* Every result field the runner reads from a runtime counter equals
   what the ledger saw: the two are kept apart, so a count bumped on
   the wrong path (or not at all) shows here. *)
let check_counters_match_ledger r l =
  check_int "nothing dropped" 0 (Ledger.dropped l);
  let count = ledger_counts l in
  check_int "htm commits" r.Runner.htm_commits (count Ledger.Tx_commit);
  check_int "wakeups" r.Runner.wakeups (count Ledger.Wake);
  check_int "switches granted" r.Runner.switches_granted
    (count Ledger.Switch_granted);
  check_int "switches denied" r.Runner.switches_denied
    (count Ledger.Switch_denied);
  check_int "spilled lines" r.Runner.spilled_lines (count Ledger.Spill);
  check_int "sw commits" r.Runner.sw_commits (count Ledger.Sw_commit);
  check_int "clock advances" r.Runner.clock_advances
    (count Ledger.Clock_advance);
  check_int "lock dwell" r.Runner.lock_dwell_cycles (ledger_lock_dwell l)

let test_ledger_breakdown_matches_stats () =
  let r, l = run_with_ledger () in
  check_counters_match_ledger r l;
  let b = Profile.of_ledger ~cores:4 l in
  check_int "aborts" r.Runner.aborts (Profile.total_aborts b);
  List.iter2
    (fun (reason, expected) (reason', got) ->
      check_bool "reason order" true (reason = reason');
      check_int (Reason.label reason) expected got)
    r.Runner.abort_mix (Profile.abort_mix b);
  check_int "rejects" r.Runner.rejects (Profile.rejects b);
  check_int "parks" r.Runner.parks (Profile.parks b);
  check_int "wakes" r.Runner.wakeups (Profile.wakes b);
  (* Labyrinth's footprints overflow the L1: switchingMode, the
     overflow signatures and the fallback lock all see traffic. *)
  let r, l = run_with_ledger ~workload:"labyrinth" ~scale:0.5 () in
  check_bool "switches, spills and lock dwell occurred" true
    (r.Runner.switches_granted > 0
    && r.Runner.spilled_lines > 0
    && r.Runner.lock_dwell_cycles > 0);
  check_counters_match_ledger r l;
  let r, l = run_with_ledger ~sysconf:Sysconf.sw_tl2 () in
  check_bool "software path ran" true
    (r.Runner.sw_commits > 0 && r.Runner.clock_advances > 0);
  check_counters_match_ledger r l

let test_trace_labels () =
  let label = Tracing.event_label in
  let abort reason who =
    Ledger.pack_abort ~reason:(Reason.index reason) ~who ~age:7
  in
  check Alcotest.string "environmental abort" "abort:mutex"
    (label Ledger.Tx_abort (abort Reason.Conflict_mutex (-1)));
  check Alcotest.string "attributed abort" "abort:mc by 3"
    (label Ledger.Tx_abort (abort Reason.Conflict_htm 3));
  check Alcotest.string "reject by a core" "reject by 2"
    (label Ledger.Reject (Ledger.pack_attr ~who:2 ~age:9));
  check Alcotest.string "reject by the signatures" "reject by llc"
    (label Ledger.Reject (Ledger.pack_attr ~who:(-1) ~age:9));
  check Alcotest.string "stl end" "hlend stl" (label Ledger.Hl_end 1);
  check Alcotest.string "first attempt" "xbegin" (label Ledger.Tx_begin 0);
  check Alcotest.string "retry" "xbegin retry 2" (label Ledger.Tx_begin 2)

let test_ledger_jobs_differential () =
  (* Each pool job builds its own simulator and ledger, so the event
     stream must not depend on how many domains ran the grid. *)
  let grid =
    Array.of_list
      [ (Sysconf.lockiller, 2); (Sysconf.lockiller, 4);
        (Sysconf.baseline, 2); (Sysconf.baseline, 4) ]
  in
  let dump_of (sysconf, threads) =
    let _, l = run_with_ledger ~sysconf ~threads () in
    Format.asprintf "%a" Ledger.dump l
  in
  let seq = Pool.map ~jobs:1 dump_of grid in
  let par = Pool.map ~jobs:4 dump_of grid in
  check_bool "identical event streams" true (seq = par)

let test_perfetto_export_wellformed () =
  let r, l = run_with_ledger () in
  match Tracing.perfetto_json l with
  | Json.Obj [ ("traceEvents", Json.List events) ] ->
    check_bool "has events" true (List.length events > 0);
    (* Every event carries the mandatory members; slices have
       non-negative durations; abort slices are tagged with a reason
       and count exactly the runner's aborts. *)
    let aborts = ref 0 in
    List.iter
      (fun e ->
        let member name =
          match Json.member name e with
          | Ok v -> v
          | Error m -> Alcotest.fail m
        in
        let name =
          match Json.to_str (member "name") with
          | Ok s -> s
          | Error m -> Alcotest.fail m
        in
        match Json.to_str (member "ph") with
        | Ok "X" ->
          (match Json.to_int (member "dur") with
          | Ok d -> check_bool "dur >= 0" true (d >= 0)
          | Error m -> Alcotest.fail m);
          if String.length name > 6 && String.sub name 0 6 = "abort:" then begin
            incr aborts;
            match Json.member "args" e with
            | Ok (Json.Obj args) ->
              check_bool "reason tag" true (List.mem_assoc "reason" args)
            | Ok _ | Error _ -> Alcotest.fail "abort slice without args"
          end
        | Ok _ -> ()
        | Error m -> Alcotest.fail m)
      events;
    check_int "abort slices" r.Runner.aborts !aborts
  | _ -> Alcotest.fail "expected {\"traceEvents\": [...]}"

(* --- Causal profile --------------------------------------------------------- *)

(* One profiled run: the streaming tap and the retained ring observe
   the same events, so the tap-fed profile and a post-hoc fold of the
   ledger must agree exactly (when nothing wrapped). *)
let run_with_profile ?(capacity = 1 lsl 18) () =
  let w = Option.get (Suite.find "intruder") in
  let state = ref None in
  let r =
    Runner.run
      ~options:
        {
          Runner.default_options with
          scale = 0.2;
          machine = Config.machine ~cores:4 ();
          on_runtime =
            (fun rt ->
              let l = Runtime.enable_ledger ~capacity rt in
              let p = Profile.create ~cores:4 in
              Profile.attach p l;
              state := Some (l, p));
        }
      ~sysconf:Sysconf.lockiller ~workload:w ~threads:4 ()
  in
  let l, p = Option.get !state in
  (r, l, p)

let test_profile_stream_matches_fold () =
  let r, l, streamed = run_with_profile () in
  check_int "nothing dropped" 0 (Ledger.dropped l);
  let folded = Profile.of_ledger ~cores:4 l in
  check_int "fold sees no drops" 0 (Profile.dropped folded);
  check_int "total aborts" (Profile.total_aborts folded)
    (Profile.total_aborts streamed);
  check_int "attributed" (Profile.attributed folded)
    (Profile.attributed streamed);
  check_int "environmental" (Profile.environmental folded)
    (Profile.environmental streamed);
  check_int "wasted" (Profile.wasted folded) (Profile.wasted streamed);
  check_int "nacks" (Profile.nacks folded) (Profile.nacks streamed);
  check_int "rejects" (Profile.rejects folded) (Profile.rejects streamed);
  check_int "protocol kills" (Profile.protocol_kills folded)
    (Profile.protocol_kills streamed);
  check_int "commits" (Profile.commits folded) (Profile.commits streamed);
  check_int "chain depth" (Profile.max_chain_depth folded)
    (Profile.max_chain_depth streamed);
  check_int "serial commit cycles"
    (Profile.serial_commit_cycles folded)
    (Profile.serial_commit_cycles streamed);
  check_int "discarded writes" (Profile.discarded_writes folded)
    (Profile.discarded_writes streamed);
  check_int "lock acquisitions" (Profile.lock_acquisitions folded)
    (Profile.lock_acquisitions streamed);
  check_int "lock handoffs" (Profile.lock_handoffs folded)
    (Profile.lock_handoffs streamed);
  for core = 0 to 3 do
    check_int
      (Printf.sprintf "wasted core %d" core)
      (Profile.wasted_of folded ~core)
      (Profile.wasted_of streamed ~core);
    check_int
      (Printf.sprintf "killed_by core %d" core)
      (Profile.killed_by folded ~victim:core)
      (Profile.killed_by streamed ~victim:core)
  done;
  check_bool "same top pairs" true
    (Profile.top_pairs folded ~k:10 = Profile.top_pairs streamed ~k:10);
  (* And both agree with the runner's own always-on accounting. *)
  check_int "edge total = runner aborts" r.Runner.aborts
    (Profile.total_aborts streamed);
  check_int "wasted = runner wasted" r.Runner.wasted_cycles
    (Profile.wasted streamed);
  List.iter
    (fun (reason, n) ->
      check_int
        ("wasted by " ^ Reason.label reason)
        n
        (Profile.wasted_by_reason streamed reason))
    r.Runner.wasted_by_reason

let test_profile_stream_survives_wraparound () =
  (* A tiny ring wraps long before the run ends; the streaming tap
     still sees every record (its totals match the big-ring run, which
     is deterministic across ledger capacities), while a post-hoc fold
     can only cover the retained suffix. *)
  let _, big_l, big_p = run_with_profile () in
  let _, small_l, small_p = run_with_profile ~capacity:256 () in
  check_bool "ring wrapped" true (Ledger.dropped small_l > 0);
  check_int "streamed aborts immune to wrap" (Profile.total_aborts big_p)
    (Profile.total_aborts small_p);
  check_int "streamed wasted immune to wrap" (Profile.wasted big_p)
    (Profile.wasted small_p);
  check_int "ledgers saw the same stream" (Ledger.recorded big_l)
    (Ledger.recorded small_l);
  let folded = Profile.of_ledger ~cores:4 small_l in
  check_bool "fold reports the loss" true (Profile.dropped folded > 0);
  check_bool "fold covers at most the stream" true
    (Profile.total_aborts folded <= Profile.total_aborts small_p)

let test_profile_breakdown_exact_after_wraparound () =
  (* The abort breakdown reads the streaming profile, so a five-record
     ring, which keeps almost nothing of the run, still reports every
     abort, park and wake the result counts. *)
  let r, l, p = run_with_profile ~capacity:5 () in
  check_bool "ring wrapped" true (Ledger.dropped l > 0);
  check_bool "aborts occurred" true (r.Runner.aborts > 0);
  check_int "aborts" r.Runner.aborts (Profile.total_aborts p);
  List.iter2
    (fun (reason, expected) (reason', got) ->
      check_bool "reason order" true (reason = reason');
      check_int (Reason.label reason) expected got)
    r.Runner.abort_mix (Profile.abort_mix p);
  check_int "rejects" r.Runner.rejects (Profile.rejects p);
  check_int "parks" r.Runner.parks (Profile.parks p);
  check_int "wakes" r.Runner.wakeups (Profile.wakes p);
  let member name =
    match Json.member name (Tracing.json_of_breakdown p) with
    | Ok (Json.Int n) -> n
    | _ -> Alcotest.fail ("breakdown JSON lacks " ^ name)
  in
  check_int "json aborts" r.Runner.aborts (member "aborts");
  check_int "json dropped" 0 (member "dropped")

let test_profile_feed_no_alloc () =
  (* The tap runs on the simulator's emit path, so feeding a record —
     including the abort/commit bookkeeping — must not allocate. *)
  let sim = Lk_engine.Sim.create () in
  let l = Ledger.create ~capacity:1024 sim in
  let p = Profile.create ~cores:4 in
  Profile.attach p l;
  let emit_round i =
    Ledger.emit l ~core:(i land 3) Ledger.Tx_begin ~arg:0;
    Ledger.emit l ~core:(i land 3) Ledger.Nack
      ~arg:(Ledger.pack_attr ~who:((i + 1) land 3) ~age:17);
    Ledger.emit l ~core:(i land 3) Ledger.Tx_abort
      ~arg:(Ledger.pack_abort ~reason:0 ~who:((i + 1) land 3) ~age:42);
    Ledger.emit l ~core:(i land 3) Ledger.Spec_discard
      ~arg:(Ledger.pack_discard ~writes:3 ~age:42);
    Ledger.emit l ~core:(i land 3) Ledger.Tx_commit ~arg:1;
    Ledger.emit l ~core:(i land 3) Ledger.Lock_acquire ~arg:0;
    Ledger.emit l ~core:(i land 3) Ledger.Lock_release ~arg:0
  in
  for i = 1 to 100 do
    emit_round i
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    emit_round i
  done;
  let per_event = (Gc.minor_words () -. w0) /. 70_000.0 in
  check_bool
    (Printf.sprintf "allocation-free feed (%.4f words/event)" per_event)
    true
    (per_event < 0.01)

(* --- Telemetry ------------------------------------------------------------- *)

module Telemetry = Lk_sim.Telemetry
module Timeseries = Lk_engine.Timeseries

(* One sampled run: intruder is contended enough at this scale that the
   phase strips show transactional, lock and parked states. *)
let run_with_telemetry ?(sysconf = Sysconf.lockiller) ?(threads = 4)
    ?(interval = 256) () =
  let w = Option.get (Suite.find "intruder") in
  let tele = ref None in
  let r =
    Runner.run
      ~options:
        {
          Runner.default_options with
          scale = 0.2;
          machine = Config.machine ~cores:4 ();
          telemetry =
            Some (Runner.telemetry_request ~interval (fun t -> tele := Some t));
        }
      ~sysconf ~workload:w ~threads ()
  in
  (r, Option.get !tele)

let test_telemetry_samples_the_run () =
  let r, t = run_with_telemetry () in
  check_int "interval" 256 (Telemetry.interval t);
  check_bool "sampled repeatedly" true (Telemetry.samples t > 10);
  check_int "nothing dropped" 0 (Telemetry.dropped t);
  check_int "one channel per core" 4 (Timeseries.width (Telemetry.phases t));
  Alcotest.(check (list string))
    "gauge channels" Telemetry.gauge_channels
    (Timeseries.channels (Telemetry.gauges t));
  (* The rings sample in lockstep on an exact interval grid. (The last
     samples may land shortly after the final core finishes, while the
     simulator drains trailing events.) *)
  let phases = Telemetry.phases t in
  let n = Timeseries.length phases in
  check_int "rings in lockstep" n (Timeseries.length (Telemetry.gauges t));
  check_int "rings in lockstep" n (Timeseries.length (Telemetry.links t));
  for s = 0 to n - 1 do
    let time = Timeseries.time phases ~sample:s in
    check_int "sample on the grid" 0 (time mod 256);
    if s > 0 then
      check_int "consecutive samples" (Timeseries.time phases ~sample:(s - 1) + 256) time
  done;
  check_bool "sampling stops soon after the run" true
    (Timeseries.time phases ~sample:(n - 1) <= r.Runner.cycles + (2 * 256));
  (* Phase codes stay in range and the run visits a transactional
     phase at some point. *)
  let saw_tx = ref false in
  Timeseries.iter phases (fun ~time:_ ~row ->
      Array.iter
        (fun p ->
          check_bool "phase code in range" true (p >= 0 && p < Runtime.num_phases);
          if p = 1 then saw_tx := true)
        row);
  check_bool "saw a transactional phase" true !saw_tx

let test_telemetry_does_not_change_results () =
  (* The sampler is read-only: the simulated outcome must be identical
     with telemetry on and off. *)
  let w = Option.get (Suite.find "intruder") in
  let base_options =
    {
      Runner.default_options with
      scale = 0.2;
      machine = Config.machine ~cores:4 ();
    }
  in
  let plain =
    Runner.run ~options:base_options ~sysconf:Sysconf.lockiller ~workload:w
      ~threads:4 ()
  in
  let sampled, _ = run_with_telemetry () in
  check_bool "identical results" true (plain = sampled)

let test_telemetry_jobs_differential () =
  let grid =
    Array.of_list
      [ (Sysconf.lockiller, 2); (Sysconf.lockiller, 4);
        (Sysconf.baseline, 2); (Sysconf.baseline, 4) ]
  in
  let export_of (sysconf, threads) =
    let _, t = run_with_telemetry ~sysconf ~threads () in
    Telemetry.to_json t ^ Telemetry.to_csv t
  in
  let seq = Pool.map ~jobs:1 export_of grid in
  let par = Pool.map ~jobs:4 export_of grid in
  check_bool "identical exports" true (seq = par)

let test_telemetry_sample_no_alloc () =
  (* The sampling path must not allocate: phase/gauge reads are plain
     field loads and the ring writes are stores into preallocated
     arrays. *)
  let _, t = run_with_telemetry () in
  for _ = 1 to 100 do
    Telemetry.sample_now t
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Telemetry.sample_now t
  done;
  let per_call = (Gc.minor_words () -. w0) /. 10_000.0 in
  check_bool
    (Printf.sprintf "allocation-free sampling (%.2f words/sample)" per_call)
    true (per_call < 0.01)

let test_telemetry_perfetto_counters () =
  let _, t = run_with_telemetry () in
  let events = Telemetry.perfetto_counters t in
  let retained = Timeseries.length (Telemetry.phases t) in
  let cores = Timeseries.width (Telemetry.phases t) in
  (* Per sample: one counter per core plus signature fill, queue depth,
     cores waiting, hybrid sw, backlog and link utilization. *)
  check_int "event count" (retained * (cores + 6)) (List.length events);
  List.iter
    (fun e ->
      let member name =
        match Json.member name e with
        | Ok v -> v
        | Error m -> Alcotest.fail m
      in
      check_bool "ph C" true (Json.to_str (member "ph") = Ok "C");
      check_bool "has ts" true (Result.is_ok (Json.to_int (member "ts")));
      match member "args" with
      | Json.Obj members ->
        check_bool "has a series" true (members <> []);
        List.iter
          (fun (_, v) ->
            match v with
            | Json.Int _ | Json.Float _ -> ()
            | _ -> Alcotest.fail "non-numeric series")
          members
      | _ -> Alcotest.fail "args not an object")
    events

let test_telemetry_latency_percentiles_in_result () =
  let r, _ = run_with_telemetry () in
  check_bool "p50 positive" true (r.Runner.tx_latency_p50 > 0);
  check_bool "ordered" true
    (r.Runner.tx_latency_p50 <= r.Runner.tx_latency_p95
    && r.Runner.tx_latency_p95 <= r.Runner.tx_latency_p99)

(* --- Hybrid-TM comparators ---------------------------------------------- *)

let hybrid_run ?(sysconf = Sysconf.sw_tl2) workload_name =
  let workload = Option.get (Suite.find workload_name) in
  Runner.run ~options:quick_options ~sysconf ~workload ~threads:4 ()

let test_hybrid_sw_tl2_all_software () =
  (* With max_retries = 0 every section goes straight to the TL2
     software path: no hardware or lock commits, only [sw_commits],
     and the time spent committing lands in the [Sw] category. The run
     itself is the strongest assertion — conservation and the
     serializability oracle verify the committed values. *)
  let r = hybrid_run "intruder" in
  check_int "no htm commits" 0 r.Runner.htm_commits;
  check_int "no lock commits" 0 r.Runner.lock_commits;
  check_bool "sw commits" true (r.Runner.sw_commits > 0);
  check_bool "oracle ran" true (r.Runner.oracle_sections > 0);
  check_bool "sw cycles accounted" true
    (List.assoc Accounting.Sw r.Runner.breakdown > 0);
  check_bool "clock advanced" true (r.Runner.clock_advances > 0)

let test_hybrid_gv1_gv5_equivalent_outcome () =
  (* The eager (GV1) and lazy (GV5) clock disciplines serialize
     differently but must agree on the outcome: both oracle-clean
     (Runner.run raises otherwise), both commit every section. *)
  let gv1 = hybrid_run ~sysconf:Sysconf.hytm_gv1 "intruder" in
  let gv5 = hybrid_run ~sysconf:Sysconf.hytm_gv5 "intruder" in
  check_int "same sections committed"
    (gv1.Runner.htm_commits + gv1.Runner.sw_commits)
    (gv5.Runner.htm_commits + gv5.Runner.sw_commits);
  check_bool "gv1 oracle ran" true (gv1.Runner.oracle_sections > 0);
  check_bool "gv5 oracle ran" true (gv5.Runner.oracle_sections > 0);
  check_bool "both exercise the software path" true
    (gv1.Runner.sw_commits > 0 && gv5.Runner.sw_commits > 0)

let test_hybrid_validation_abort_in_ledger () =
  (* Validation failures must show up consistently in three places:
     the result's abort mix, the ledger-derived breakdown, and the
     software-path counters. *)
  let r, l = run_with_ledger ~sysconf:Sysconf.sw_tl2 () in
  check_int "nothing dropped" 0 (Ledger.dropped l);
  let b = Profile.of_ledger ~cores:4 l in
  let valid_result = List.assoc Reason.Validation r.Runner.abort_mix in
  let valid_ledger = List.assoc Reason.Validation (Profile.abort_mix b) in
  check_bool "validation aborts occurred" true (valid_result > 0);
  check_int "ledger matches result" valid_result valid_ledger;
  check_bool "all sw aborts have a reason" true
    (Profile.sw_aborts b >= valid_ledger);
  check_int "sw commits" r.Runner.sw_commits (Profile.sw_commits b);
  check_int "clock advances" r.Runner.clock_advances
    (Profile.clock_advances b)

let test_hybrid_nohw_determinism () =
  (* The software path keeps no state across runs: a repeat run in the
     same process is byte-identical, like every other mechanism. *)
  let dump () = Json.to_string (Runner.json_of_result (hybrid_run "intruder")) in
  check Alcotest.string "repeat run byte-identical" (dump ()) (dump ())

(* --- Pool ------------------------------------------------------------------ *)

let test_pool_matches_sequential () =
  let xs = Array.init 20 (fun i -> i) in
  let f i = i * i in
  check_bool "jobs:4 = jobs:1" true
    (Pool.map ~jobs:1 f xs = Pool.map ~jobs:4 f xs)

let test_pool_parallel_results_identical () =
  (* The acceptance bar: simulation results collected through the pool
     are identical (hence deterministic) for any job count. *)
  let w = Option.get (Suite.find "kmeans") in
  let grid =
    Array.of_list
      (List.concat_map
         (fun sysconf -> [ (sysconf, 2); (sysconf, 4) ])
         [ Sysconf.cgl; Sysconf.baseline; Sysconf.lockiller ])
  in
  let run (sysconf, threads) =
    Runner.run
      ~options:
        {
          Runner.default_options with
          scale = 0.1;
          machine = Config.machine ~cores:4 ();
        }
      ~sysconf ~workload:w ~threads ()
  in
  let seq = Pool.map ~jobs:1 run grid in
  let par = Pool.map ~jobs:4 run grid in
  check_bool "identical results" true (seq = par)

let test_pool_propagates_exception () =
  check_bool "raises" true
    (match
       Pool.map ~jobs:4
         (fun i -> if i = 7 then failwith "boom" else i)
         (Array.init 16 (fun i -> i))
     with
    | exception Failure msg -> msg = "boom"
    | _ -> false)

(* --- Cache ----------------------------------------------------------------- *)

let with_temp_cache ?schema f =
  let dir = Filename.temp_file "lockiller-test" ".cache" in
  Sys.remove dir;
  let finally () =
    let c = Cache.create ~dir () in
    ignore (Cache.clear c);
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  Fun.protect ~finally (fun () -> f (Cache.create ?schema ~dir ()))

let sample_job_key cache =
  let w = Option.get (Suite.find "intruder") in
  Cache.key cache
    ~options:{ Runner.default_options with scale = 0.1 }
    ~sysconf:Sysconf.lockiller ~workload:w ~threads:4

let test_cache_roundtrip () =
  with_temp_cache (fun cache ->
      let r = sample_result () in
      let key = sample_job_key cache in
      check_bool "cold" true (Cache.find cache key = None);
      Cache.store cache key r;
      (match Cache.find cache key with
      | None -> Alcotest.fail "stored entry not found"
      | Some r' -> check_bool "structurally equal" true (r = r'));
      check_int "one store" 1 (Cache.stores cache);
      check_int "one hit" 1 (Cache.hits cache);
      check_int "one miss" 1 (Cache.misses cache))

let test_cache_schema_invalidates () =
  with_temp_cache (fun cache ->
      let r = sample_result () in
      Cache.store cache (sample_job_key cache) r;
      (* Same directory, bumped schema: the key changes and the old
         entry is unreachable. *)
      let bumped = Cache.create ~schema:"999" ~dir:(Cache.dir cache) () in
      check_bool "different key" true
        (sample_job_key cache <> sample_job_key bumped);
      check_bool "miss after bump" true
        (Cache.find bumped (sample_job_key bumped) = None);
      let st = Cache.disk_stats bumped in
      check_int "old entry is stale" 1 st.Cache.stale_entries)

let test_cache_corrupt_entry_is_miss () =
  with_temp_cache (fun cache ->
      let key = sample_job_key cache in
      Cache.store cache key (sample_result ());
      let path =
        Filename.concat
          (Filename.concat (Cache.dir cache) ("v" ^ Cache.schema_version))
          (key ^ ".json")
      in
      let oc = open_out path in
      output_string oc "{ not json";
      close_out oc;
      check_bool "corrupt entry misses" true (Cache.find cache key = None);
      check_bool "corrupt entry removed" true (not (Sys.file_exists path)))

let test_cache_key_sensitivity () =
  with_temp_cache (fun cache ->
      let w = Option.get (Suite.find "intruder") in
      let base ?(options = { Runner.default_options with scale = 0.1 })
          ?(threads = 4) () =
        Cache.key cache ~options ~sysconf:Sysconf.lockiller ~workload:w
          ~threads
      in
      let k = base () in
      check_bool "seed" true
        (k <> base ~options:{ Runner.default_options with scale = 0.1; seed = 2 } ());
      check_bool "scale" true
        (k <> base ~options:{ Runner.default_options with scale = 0.2 } ());
      check_bool "threads" true (k <> base ~threads:2 ()))

(* Reshaping a job must not move its cache key: a new digest for the same
   inputs would turn every existing on-disk cache cold. A deliberate key
   change bumps [Cache.schema_version] and this digest with it. *)
let test_cache_key_golden () =
  let golden = "fda2137f1b10d56131af7d0c25781e83" in
  let ctx = Experiments.make_context ~scale:0.1 ~cores:4 ~threads:[ 2 ] () in
  let first = List.hd (Experiments.fig1.Experiments.plan ctx) in
  check Alcotest.string "job key" golden (Experiments.job_key ctx first);
  let options =
    {
      Runner.default_options with
      seed = 1;
      scale = 0.1;
      machine = Config.machine ~cores:4 ();
    }
  in
  check Alcotest.string "Cache.key" golden
    (Cache.key (Cache.create ~dir:"" ()) ~options ~sysconf:Sysconf.cgl
       ~workload:(List.hd Suite.all) ~threads:2)

(* --- Parallel + cached experiment execution -------------------------------- *)

let test_execute_parallel_matches_sequential () =
  let render jobs cache =
    let ctx =
      Experiments.make_context ~scale:0.2 ~cores:4 ~threads:[ 2; 4 ] ~jobs
        ?cache ()
    in
    let tables = Experiments.execute ctx Experiments.fig1 in
    (tables, Experiments.simulations ctx)
  in
  let seq, n_seq = render 1 None in
  let par, n_par = render 4 None in
  check_bool "tables identical" true (seq = par);
  check_int "same simulation count" n_seq n_par;
  check_bool "simulated something" true (n_seq > 0)

let test_execute_warm_cache_skips_simulation () =
  with_temp_cache (fun cache ->
      let run () =
        let ctx =
          Experiments.make_context ~scale:0.2 ~cores:4 ~threads:[ 2 ] ~jobs:2
            ~cache ()
        in
        let tables = Experiments.execute ctx Experiments.fig1 in
        (tables, Experiments.simulations ctx)
      in
      let cold, n_cold = run () in
      let warm, n_warm = run () in
      check_bool "warm tables identical" true (cold = warm);
      check_bool "cold simulated" true (n_cold > 0);
      check_int "warm simulated nothing" 0 n_warm)

let () =
  Alcotest.run "sim"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_machine_defaults;
          Alcotest.test_case "cache profiles" `Quick
            test_machine_cache_profiles;
          Alcotest.test_case "small meshes" `Quick test_machine_small_meshes;
          Alcotest.test_case "bad core count" `Quick
            test_machine_rejects_odd_core_counts;
          Alcotest.test_case "table1" `Quick test_table1_rows;
          Alcotest.test_case "build" `Quick test_build;
          Alcotest.test_case "build allocation" `Quick test_build_allocation;
          Alcotest.test_case "no per-core state before first use" `Quick
            test_build_per_core_state;
          Alcotest.test_case "mesh shape general" `Quick
            test_mesh_shape_general;
          Alcotest.test_case "non-divisor llc banks" `Quick
            test_build_non_divisor_llc;
          Alcotest.test_case "cli cores validator" `Quick test_cli_cores;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "speedup" `Quick test_speedup;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "mean/max/pct" `Quick test_mean_max;
          QCheck_alcotest.to_alcotest prop_geomean_between_min_max;
        ] );
      ( "report",
        [
          Alcotest.test_case "render" `Quick test_report_render;
          Alcotest.test_case "csv" `Quick test_report_csv;
        ] );
      ( "runner",
        [
          Alcotest.test_case "basic metrics" `Quick test_runner_basic_metrics;
          Alcotest.test_case "breakdown categories" `Quick
            test_runner_breakdown_covers_all_categories;
          Alcotest.test_case "abort mix order" `Quick
            test_runner_abort_mix_paper_order;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick
            test_runner_seed_changes_outcome;
          Alcotest.test_case "thread bounds" `Quick test_runner_thread_bounds;
          Alcotest.test_case "abort fractions" `Quick test_abort_fraction;
          Alcotest.test_case "yada under lockiller" `Quick
            test_runner_fault_survival_in_lock_modes;
          Alcotest.test_case "placement" `Quick test_placement_spread;
          Alcotest.test_case "avg attempts" `Quick test_avg_attempts_metric;
          Alcotest.test_case "cycle limit" `Quick test_cycle_limit_guard;
          Alcotest.test_case "run_program" `Quick test_run_program;
          Alcotest.test_case "run_program lock collision" `Quick
            test_run_program_rejects_lock_collision;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "thread filter" `Quick test_context_thread_filter;
          Alcotest.test_case "unique ids" `Quick test_experiment_ids_unique;
          Alcotest.test_case "find" `Quick test_experiment_find;
          Alcotest.test_case "memoised" `Quick test_result_memoised;
          Alcotest.test_case "speedup positive" `Quick
            test_speedup_vs_cgl_positive;
          Alcotest.test_case "every plan is exact" `Quick
            test_every_plan_is_exact;
          Alcotest.test_case "fig10 shape" `Quick
            test_fig10_renders_on_small_machine;
        ] );
      ( "json",
        [
          Alcotest.test_case "result round-trip" `Quick
            test_result_json_roundtrip;
          Alcotest.test_case "result fields" `Quick test_result_json_fields;
          Alcotest.test_case "rejects garbage" `Quick
            test_result_json_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_decoder_names_member;
          Alcotest.test_case "columns" `Quick test_result_columns;
          Alcotest.test_case "float exactness" `Quick
            test_json_float_roundtrip;
          Alcotest.test_case "report to_json" `Quick test_report_to_json;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "breakdown matches stats" `Quick
            test_ledger_breakdown_matches_stats;
          Alcotest.test_case "jobs:4 = jobs:1 streams" `Quick
            test_ledger_jobs_differential;
          Alcotest.test_case "perfetto well-formed" `Quick
            test_perfetto_export_wellformed;
          Alcotest.test_case "trace labels" `Quick test_trace_labels;
        ] );
      ( "profile",
        [
          Alcotest.test_case "stream matches fold" `Quick
            test_profile_stream_matches_fold;
          Alcotest.test_case "stream survives wraparound" `Quick
            test_profile_stream_survives_wraparound;
          Alcotest.test_case "breakdown exact after wraparound" `Quick
            test_profile_breakdown_exact_after_wraparound;
          Alcotest.test_case "feed no alloc" `Quick test_profile_feed_no_alloc;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "sw-tl2 pure software" `Quick
            test_hybrid_sw_tl2_all_software;
          Alcotest.test_case "gv1/gv5 same outcome" `Quick
            test_hybrid_gv1_gv5_equivalent_outcome;
          Alcotest.test_case "validation aborts in ledger" `Quick
            test_hybrid_validation_abort_in_ledger;
          Alcotest.test_case "nohw determinism" `Quick
            test_hybrid_nohw_determinism;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "samples the run" `Quick
            test_telemetry_samples_the_run;
          Alcotest.test_case "results unchanged" `Quick
            test_telemetry_does_not_change_results;
          Alcotest.test_case "jobs:4 = jobs:1 exports" `Quick
            test_telemetry_jobs_differential;
          Alcotest.test_case "sample no alloc" `Quick
            test_telemetry_sample_no_alloc;
          Alcotest.test_case "perfetto counters" `Quick
            test_telemetry_perfetto_counters;
          Alcotest.test_case "latency percentiles" `Quick
            test_telemetry_latency_percentiles_in_result;
        ] );
      ( "pool",
        [
          Alcotest.test_case "pure map" `Quick test_pool_matches_sequential;
          Alcotest.test_case "simulation grid deterministic" `Quick
            test_pool_parallel_results_identical;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_propagates_exception;
        ] );
      ( "cache",
        [
          Alcotest.test_case "round-trip" `Quick test_cache_roundtrip;
          Alcotest.test_case "schema bump invalidates" `Quick
            test_cache_schema_invalidates;
          Alcotest.test_case "corrupt entry" `Quick
            test_cache_corrupt_entry_is_miss;
          Alcotest.test_case "key sensitivity" `Quick
            test_cache_key_sensitivity;
          Alcotest.test_case "key golden digest" `Quick test_cache_key_golden;
        ] );
      ( "parallel-execute",
        [
          Alcotest.test_case "jobs:4 = jobs:1" `Quick
            test_execute_parallel_matches_sequential;
          Alcotest.test_case "warm cache skips simulation" `Quick
            test_execute_warm_cache_skips_simulation;
        ] );
    ]
