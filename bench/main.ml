(* Perf microbenchmarks: the event queue, the kernel, trace decode,
   whole machines, the NoC send path and the heap footprint. Writes
   BENCH_micro.json and prints the same tree, one line per leaf;
   `make perfcheck` compares the file against bench/baseline.json.

   Usage:
     dune exec bench/main.exe

   It takes no arguments. The paper's tables and figures come from
     lockiller_sim experiment all *)

module Event_queue = Lockiller.Engine.Event_queue
module Sim = Lockiller.Engine.Sim
module Topology = Lockiller.Mesh.Topology
module Network = Lockiller.Mesh.Network
module Sysconf = Lockiller.Mechanisms.Sysconf
module Runner = Lockiller.Sim.Runner
module Perf = Lockiller.Sim.Perf
module Json = Lockiller.Sim.Json

(* --- Perf microbenchmark: schedule/pop throughput, wheel vs heap -------- *)

(* Deterministic delay stream (no global RNG) matching the simulator's
   profile: mostly short latencies (L1 hits, NoC hops — 1..256 cycles),
   with 1 in 64 a long one (up to ~4k, past the wheel's 1024-cycle near
   window, exercising the far-heap overflow path). *)
let lcg_next st =
  st := (!st * 0x2545F4914F6CDD1D) + 0x9E3779B9;
  let r = !st lsr 33 in
  if r land 63 = 0 then 1 + (r land 4095) else 1 + (r land 255)

(* Hold model on the raw queue: [resident] pending events; every pop
   reschedules its payload a pseudo-random delay ahead, so occupancy
   stays constant and the probe sees pure schedule/pop steady state.
   Uses the allocation-free next_time/pop_payload pair like the kernel
   does. *)
let queue_micro ~backend ~ops =
  let q = Event_queue.create ~backend () in
  let resident = 8192 in
  let st = ref 0x3779B97F4A7C15 in
  for i = 0 to resident - 1 do
    Event_queue.add q ~time:(lcg_next st) i
  done;
  let probe = Perf.start () in
  let clock = ref 0 in
  for _ = 1 to ops do
    let t = Event_queue.next_time q in
    let v = Event_queue.pop_payload q in
    clock := t;
    Event_queue.add q ~time:(t + lcg_next st) v
  done;
  Perf.stop probe ~events:ops ~cycles:!clock

(* The same steady state through the kernel: 1024 self-rescheduling
   event chains until ~[ops] events have fired. *)
let sim_micro ~backend ~ops =
  let sim = Sim.create ~backend () in
  let st = ref 0x51AFE2149F123BCD in
  let remaining = ref ops in
  let rec tick () =
    if !remaining > 0 then begin
      decr remaining;
      Sim.schedule sim ~delay:(lcg_next st) tick
    end
  in
  for _ = 1 to 1024 do
    Sim.schedule sim ~delay:(lcg_next st) tick
  done;
  let (), s = Perf.observe sim (fun () -> Sim.run sim) in
  s

(* Trace ingestion: streaming read throughput over a generated binary
   trace. Written once to a temp file, then measured over a full
   streaming read pass (header + varint decode + monotonicity check),
   the same path 'lockiller_sim replay' feeds from. *)
let trace_micro ~ops =
  let module Gen = Lockiller.Trace.Gen in
  let module Stream = Lockiller.Trace.Stream in
  let profile = { Gen.default with duration = max 1 ops } in
  let file = Filename.temp_file "lockiller_bench" ".lkt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out_bin file in
  let w = Stream.writer_to_channel Stream.Binary oc in
  let n =
    match
      Gen.generate profile ~seed:1 ~emit:(fun r ->
          match Stream.write w r with Ok () -> () | Error e -> failwith e)
    with
    | Ok n -> n
    | Error e -> failwith e
  in
  close_out oc;
  let read_pass () =
    let ic = open_in_bin file in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    match Stream.reader_of_channel ~name:file ic with
    | Error e -> failwith e
    | Ok r -> (
      let probe = Perf.start () in
      match
        Stream.fold r ~init:0 ~f:(fun _ rec_ ->
            rec_.Lockiller.Trace.Record.arrival)
      with
      | Error e -> failwith e
      | Ok last -> Perf.stop probe ~events:n ~cycles:last)
  in
  (* First run warms code and minor heap; report the second. *)
  ignore (read_pass ());
  read_pass ()

(* One simulation fires 7k-40k events in a few ms, too short to time:
   after a warm-up run, repeat it until the runs add up to 0.3 s of
   wall time inside [Sim.run] and report the aggregate. *)
let repeated ~options ~sysconf ~workload ~threads =
  let min_seconds = 0.3 in
  let run () =
    ignore (Runner.run ~options ~sysconf ~workload ~threads ())
  in
  run ();
  Perf.reset_totals ();
  while (Perf.totals ()).Perf.total_wall_seconds < min_seconds do
    run ()
  done;
  let t = Perf.totals () in
  {
    Perf.wall_seconds = t.Perf.total_wall_seconds;
    minor_words = t.Perf.total_minor_words;
    events = t.Perf.total_events;
    cycles = t.Perf.total_cycles;
  }

(* Closed-loop machine throughput as the mesh grows: the same 16
   threads and offered work on a 32-core and a 256-core machine, so
   the only variable is the fabric — more directory shards, longer NoC
   distances, a larger event set. The events/sec ratio is
   the kernel's large-mesh scaling figure (docs/SCALING.md). *)
let machine_micro ~cores =
  match Lockiller.Stamp.Suite.find "ssca2" with
  | None -> assert false
  | Some w ->
    let machine = Lockiller.Sim.Config.machine ~cores () in
    let options =
      { Runner.default_options with machine; scale = 0.25 }
    in
    repeated ~options ~sysconf:Sysconf.lockiller ~workload:w ~threads:16

(* The NoC send path alone: one [Data] message between every (src,
   dst) pair of a [rows] x [cols] mesh per pass, passes repeated until
   they add up to [min_seconds]. The minor words of one pass are
   measured apart from the timing, less the words of an empty
   measurement, so a send path that allocates nothing reads exactly 0
   words per message. *)
let net_micro ~rows ~cols =
  let net = Network.create (Topology.create ~rows ~cols) in
  let n = rows * cols in
  let pass () =
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        ignore
          (Network.send net ~now:0 ~src ~dst
             ~class_:Lockiller.Mesh.Message.Data)
      done
    done
  in
  pass ();
  let e0 = Gc.minor_words () in
  let e1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  pass ();
  let w1 = Gc.minor_words () in
  let words = w1 -. w0 -. (e1 -. e0) in
  let min_seconds = 0.3 in
  let t0 = Unix.gettimeofday () in
  let passes = ref 0 and elapsed = ref 0.0 in
  while !elapsed < min_seconds do
    pass ();
    incr passes;
    elapsed := Unix.gettimeofday () -. t0
  done;
  let messages = !passes * n * n in
  (messages, !elapsed, words /. float_of_int (n * n))

let json_of_net (messages, seconds, words) =
  let m = float_of_int messages in
  Json.Obj
    [
      ("messages", Json.Int messages);
      ("wall_seconds", Json.Float seconds);
      ("messages_per_sec", Json.Float (m /. seconds));
      ("ns_per_message", Json.Float (seconds *. 1e9 /. m));
      ("minor_words_per_message", Json.Float words);
    ]

(* The causal profiler priced on a contended closed-loop run, off and
   on. "On" attaches the event ledger with the streaming Profile tap
   (the `profile` subcommand's configuration); the emit path is int
   packing into preallocated arrays plus an allocation-free tap call,
   so both samples must stay inside the perfcheck band — the
   "profiler_on_speedup" ratio is the gate on observation overhead
   (docs/OBSERVABILITY.md). *)
let profile_micro ~profiled =
  let module Runtime = Lockiller.Mechanisms.Runtime in
  let module Profile = Lockiller.Sim.Profile in
  match Lockiller.Stamp.Suite.find "intruder" with
  | None -> assert false
  | Some w ->
    let options =
      {
        Runner.default_options with
        scale = 0.25;
        on_runtime =
          (fun rt ->
            if profiled then begin
              let l = Runtime.enable_ledger rt in
              let p = Profile.create ~cores:32 in
              Profile.attach p l
            end);
      }
    in
    repeated ~options ~sysconf:Sysconf.lockiller ~workload:w ~threads:16

(* The TL2 software path under contention: the maximally-contended
   counter microbenchmark on SW-TL2 runs every transaction through the
   software fallback (no HTM attempts), so the sample prices the
   fallback itself — version-clock traffic, read-set validation,
   commit-time write locks (docs/HYBRID.md). *)
let swpath_micro () =
  match Lockiller.Stamp.Suite.find "micro-counter" with
  | None -> assert false
  | Some w ->
    let options = { Runner.default_options with scale = 0.25 } in
    repeated ~options ~sysconf:Sysconf.sw_tl2 ~workload:w ~threads:8

(* What a simulation holds, as reachable heap words: the 32- and
   256-core machines with their runtimes as built, before any core
   starts, and the 256-core runtime after a fixed short run of 128
   threads. A heap walk reads no clock, so the figures are
   deterministic and perfcheck holds each to its recorded value. *)
let footprint_built ~cores =
  let machine = Lockiller.Sim.Config.machine ~cores () in
  let _sim, _net, protocol = Lockiller.Sim.Config.build machine in
  let store = Lockiller.Htm.Store.create ~cores in
  let rt =
    Lockiller.Mechanisms.Runtime.create ~protocol ~store
      ~sysconf:Sysconf.lockiller ~lock_addr:Lockiller.Stamp.Workload.lock_addr
      ()
  in
  Obj.reachable_words (Obj.repr rt)

let footprint_run () =
  match Lockiller.Stamp.Suite.find "ssca2" with
  | None -> assert false
  | Some w ->
    let rt = ref None in
    let options =
      {
        Runner.default_options with
        machine = Lockiller.Sim.Config.machine ~cores:256 ();
        scale = 0.05;
        on_runtime = (fun r -> rt := Some r);
      }
    in
    ignore
      (Runner.run ~options ~sysconf:Sysconf.lockiller ~workload:w ~threads:128
         ());
    Obj.reachable_words (Obj.repr (Option.get !rt))

let bench_micro_file = "BENCH_micro.json"

let run_perf_micro () =
  (* 1M ops: minor-words/event carries a fixed setup-sized overhead
     that only amortises out at this operating point, the baseline's. *)
  let ops = 1_000_000 in
  let measure micro backend =
    (* First run warms code and minor heap; report the second. *)
    ignore (micro ~backend ~ops);
    micro ~backend ~ops
  in
  let qw = measure queue_micro Event_queue.Wheel in
  let qh = measure queue_micro Event_queue.Heap in
  let sw = measure sim_micro Event_queue.Wheel in
  let sh = measure sim_micro Event_queue.Heap in
  let tr = trace_micro ~ops in
  let m32 = machine_micro ~cores:32 in
  let m256 = machine_micro ~cores:256 in
  let poff = profile_micro ~profiled:false in
  let pon = profile_micro ~profiled:true in
  let sp = swpath_micro () in
  let net =
    [
      ("mesh4x8", net_micro ~rows:4 ~cols:8);
      ("mesh16x16", net_micro ~rows:16 ~cols:16);
    ]
  in
  let footprint =
    [
      ("cores32", footprint_built ~cores:32);
      ("cores256", footprint_built ~cores:256);
      ("run256", footprint_run ());
    ]
  in
  let speedup w h =
    let h = Perf.events_per_sec h in
    if h <= 0.0 then 0.0 else Perf.events_per_sec w /. h
  in
  let section w h =
    Json.Obj
      [
        ("wheel", Perf.json_of_sample w);
        ("heap", Perf.json_of_sample h);
        ("wheel_speedup", Json.Float (speedup w h));
      ]
  in
  let j =
    Json.Obj
      [
        ("schema", Json.Int 1);
        ("ops", Json.Int ops);
        ("queue", section qw qh);
        ("sim", section sw sh);
        ("trace", Json.Obj [ ("read", Perf.json_of_sample tr) ]);
        ( "mesh",
          Json.Obj
            [
              ("threads", Json.Int 16);
              ("cores32", Perf.json_of_sample m32);
              ("cores256", Perf.json_of_sample m256);
              ("large_mesh_speedup", Json.Float (speedup m256 m32));
            ] );
        ( "profile",
          Json.Obj
            [
              ("threads", Json.Int 16);
              ("off", Perf.json_of_sample poff);
              ("on", Perf.json_of_sample pon);
              ("profiler_on_speedup", Json.Float (speedup pon poff));
            ] );
        ( "swpath",
          Json.Obj
            [ ("threads", Json.Int 8); ("sw_tl2", Perf.json_of_sample sp) ] );
        ( "net",
          Json.Obj (List.map (fun (label, n) -> (label, json_of_net n)) net) );
        ( "footprint",
          Json.Obj
            (List.map
               (fun (label, words) ->
                 (label, Json.Obj [ ("reachable_words", Json.Int words) ]))
               footprint) );
      ]
  in
  let oc = open_out bench_micro_file in
  output_string oc (Json.to_string_pretty j);
  output_char oc '\n';
  close_out oc;
  (* The text view is the same tree: one dotted path and value per leaf. *)
  let rec print_leaves path = function
    | Json.Obj members ->
      List.iter
        (fun (k, v) ->
          print_leaves (if path = "" then k else path ^ "." ^ k) v)
        members
    | leaf -> Printf.printf "%-40s %s\n" path (Json.to_string leaf)
  in
  print_leaves "" j;
  Printf.printf "(micro: %s)\n%!" bench_micro_file

(* --- entry point --------------------------------------------------------- *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> run_perf_micro ()
  | arg :: _ ->
    Printf.eprintf
      "bench: unexpected argument %S: bench takes no arguments (the paper's \
       tables and figures come from 'lockiller_sim experiment ID...')\n%!"
      arg;
    exit 2
