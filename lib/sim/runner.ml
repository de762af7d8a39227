module Sim = Lk_engine.Sim
module Stats = Lk_engine.Stats
module Network = Lk_mesh.Network
module Protocol = Lk_coherence.Protocol
module Store = Lk_htm.Store
module Reason = Lk_htm.Reason
module Sysconf = Lk_lockiller.Sysconf
module Runtime = Lk_lockiller.Runtime
module Program = Lk_cpu.Program
module Accounting = Lk_cpu.Accounting
module Core = Lk_cpu.Core
module Workload = Lk_stamp.Workload

(* Open-loop replay statistics: how the service kept up with the
   arrival stream. Queueing delay is arrival -> service start, sojourn
   is arrival -> completion; both come from log-linear histograms
   recorded incrementally, so a multi-gigabyte trace needs no
   per-transaction storage. *)
type open_loop_stats = {
  arrivals : int;
  completed : int;
  max_backlog : int;
  queue_delay_p50 : int;
  queue_delay_p95 : int;
  queue_delay_p99 : int;
  sojourn_p50 : int;
  sojourn_p95 : int;
  sojourn_p99 : int;
  phase_mix : (int * int) list;
}

type result = {
  system : string;
  workload : string;
  threads : int;
  cache : Config.cache_profile;
  cycles : int;
  commit_rate : float;
  htm_commits : int;
  stl_commits : int;
  lock_commits : int;
  sw_commits : int;
  aborts : int;
  abort_mix : (Reason.t * int) list;
  wasted_cycles : int;
  wasted_by_reason : (Reason.t * int) list;
  breakdown : (Accounting.category * int) list;
  rejects : int;
  parks : int;
  wakeups : int;
  switches_granted : int;
  switches_denied : int;
  spilled_lines : int;
  lock_dwell_cycles : int;
  clock_advances : int;
  watchdog_rescues : int;
  network_messages : int;
  network_flits : int;
  oracle_sections : int;
  avg_attempts_per_commit : float;
  tx_latency_p50 : int;
  tx_latency_p95 : int;
  tx_latency_p99 : int;
  open_loop : open_loop_stats option;
}

type telemetry_request = {
  sample_interval : int;
  sample_capacity : int;
  consume : Telemetry.t -> unit;
}

let telemetry_request ?(interval = 1024) ?(capacity = 4096) consume =
  { sample_interval = interval; sample_capacity = capacity; consume }

type placement = Compact | Spread

(* Thread index -> core id. *)
let place ~placement ~cores ~threads i =
  match placement with
  | Compact -> i
  | Spread -> i * cores / threads

type options = {
  seed : int;
  scale : float;
  machine : Config.t;
  on_runtime : Runtime.t -> unit;
  placement : placement;
  cycle_limit : int;
  check : bool;
  telemetry : telemetry_request option;
}

let default_options =
  {
    seed = 1;
    scale = 1.0;
    machine = Config.machine ();
    on_runtime = (fun _ -> ());
    placement = Compact;
    cycle_limit = 1 lsl 30;
    check = false;
    telemetry = None;
  }

(* The checks a source must pass before anything is built, named after
   the entry point that takes that kind of source. *)
let validate_source = function
  | Workload_source.Workload _ -> ()
  | Workload_source.Program { program; _ } ->
    (match Program.validate program with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Runner.run_program: " ^ msg));
    List.iter
      (fun addr ->
        (* Lines 0-1 hold the fallback lock, line 2 the global version
           clock, line 3 the software-mode gate. *)
        if addr < 256 then
          invalid_arg
            (Printf.sprintf
               "Runner.run_program: address %#x collides with the reserved \
                lock/clock/gate lines"
               addr))
      (Program.touched_addresses program)
  | Workload_source.Replay ol -> (
    match Workload.validate ol.Workload_source.body with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Runner.replay: body profile: " ^ msg))

(* Open-loop feeder: admits each trace record at its arrival cycle on
   one of [cpus] ([core mod threads] with affinity, round-robin
   without), synthesising its body only when service begins. Returns
   the statistics, read after the run; a bad record fails the run
   there, under [label]. *)
let feed_open_loop ~sim ~cpus ~draw ~tele ~seed ~label
    (ol : Workload_source.open_loop) =
  let threads = Array.length cpus in
  let body = ol.Workload_source.body in
  let rngs = Workload.thread_rngs body ~threads ~seed in
  let group = Stats.group "replay" in
  let qdelay = Stats.hdr group "queue_delay" in
  let sojourn = Stats.hdr group "sojourn" in
  let phases = Array.make (Lk_trace.Record.max_phase + 1) 0 in
  let arrivals = ref 0
  and completed = ref 0
  and inflight = ref 0
  and max_backlog = ref 0 in
  (* Surface the open-loop backlog as a telemetry gauge (and Perfetto
     counter track): the replay overlay the closed-loop channels cannot
     see. Observational only — the probe never perturbs the run. *)
  Option.iter (fun h -> Telemetry.set_backlog_probe h (fun () -> !inflight)) tele;
  let feed_error = ref None in
  let rr = ref 0 in
  let dispatch (r : Lk_trace.Record.t) =
    let slot =
      if r.core >= 0 then r.core mod threads
      else begin
        let s = !rr in
        rr := (s + 1) mod threads;
        s
      end
    in
    incr arrivals;
    incr inflight;
    if !inflight > !max_backlog then max_backlog := !inflight;
    let arrival = r.arrival and phase = r.phase in
    let reads = r.reads and writes = r.writes in
    Core.submit cpus.(slot)
      ~gen:(fun () ->
        draw
          (Workload.synthesize body rngs.(slot) ~threads ~thread:slot ~reads
             ~writes))
      ~notify:(fun ~started ->
        decr inflight;
        incr completed;
        phases.(phase) <- phases.(phase) + 1;
        Stats.record qdelay (started - arrival);
        Stats.record sojourn (Sim.now sim - arrival))
  in
  let seal_all () = Array.iter Core.seal cpus in
  (* Range-check every record: a library-supplied [next] need not come
     from the validating trace reader. *)
  let pull () =
    match ol.Workload_source.next () with
    | Ok (Some r) -> Result.map (fun () -> Some r) (Lk_trace.Record.validate r)
    | (Ok None | Error _) as end_ -> end_
  in
  (* Pull-one-ahead: at most one unscheduled record is in memory at any
     time, so replay is O(1) in trace length. *)
  let rec feed () =
    let live = ref true in
    while !live do
      match pull () with
      | Error e ->
        feed_error := Some e;
        seal_all ();
        live := false
      | Ok None ->
        seal_all ();
        live := false
      | Ok (Some r) ->
        if r.Lk_trace.Record.arrival <= Sim.now sim then dispatch r
        else begin
          Sim.schedule_at sim ~time:r.Lk_trace.Record.arrival (fun () ->
              dispatch r;
              feed ());
          live := false
        end
    done
  in
  feed ();
  fun () ->
    Option.iter
      (fun e -> failwith (Printf.sprintf "Runner.replay: %s: %s" label e))
      !feed_error;
    {
      arrivals = !arrivals;
      completed = !completed;
      max_backlog = !max_backlog;
      queue_delay_p50 = Stats.percentile qdelay 50.;
      queue_delay_p95 = Stats.percentile qdelay 95.;
      queue_delay_p99 = Stats.percentile qdelay 99.;
      sojourn_p50 = Stats.percentile sojourn 50.;
      sojourn_p95 = Stats.percentile sojourn 95.;
      sojourn_p99 = Stats.percentile sojourn 99.;
      phase_mix =
        Array.to_list phases
        |> List.mapi (fun i n -> (i, n))
        |> List.filter (fun (_, n) -> n > 0);
    }

(* After the run: every thread finished, the protocol invariants hold,
   the oracle (which checked each section as it committed) saw no
   serializability violation, and the sanitizer, when attached, none of
   its invariants broken. *)
let check_run ~label ~threads ~finished ~protocol ~oracle ~sanitizer =
  if finished <> threads then
    failwith
      (Printf.sprintf "Runner.run: %s/%d threads: only %d threads finished"
         label threads finished);
  Protocol.check_invariants protocol;
  (match Lk_htm.Oracle.verify oracle with
  | Ok () -> ()
  | Error v ->
    failwith
      (Format.asprintf "Runner.run: %s: serializability violated: %a" label
         Lk_htm.Oracle.pp_violation v));
  match Option.map Lk_check.Sanitizer.finish sanitizer with
  | None | Some [] -> ()
  | Some (v :: _ as vs) ->
    failwith
      (Printf.sprintf "Runner.run: %s: invariant sanitizer: %s%s" label
         (Lk_check.Invariant.violation_to_string v)
         (match List.length vs with
         | 1 -> ""
         | n -> Printf.sprintf " (+%d more)" (n - 1)))

(* End-to-end atomicity check: each committed hot counter must equal
   the increments the run's transactions performed on it. *)
let check_conservation ~caller ~label ~store tally =
  List.iter
    (fun (addr, want) ->
      let got = Store.committed store addr in
      if got <> want then
        failwith
          (Printf.sprintf "%s: %s: conservation violated at %#x: %d <> %d"
             caller label addr got want))
    (Workload.expected tally)

(* The one execution path: build the machine, feed it from [source],
   run it, check it, collect the result. With a generated or replayed
   source every body's [Incr]s are tallied as it is drawn, and after the
   run each hot record and each incremented address must hold exactly
   its count. *)
let execute ~options ~sysconf ~threads (source : Workload_source.t) =
  let { seed; scale; machine; on_runtime; placement; cycle_limit; check;
        telemetry } =
    options
  in
  validate_source source;
  let label = sysconf.Sysconf.name ^ "/" ^ Workload_source.name source in
  (* Closed-loop threads draw from cursors (replay has none); [conserve]
     is the profile whose increments are tallied, [caller] the entry
     point a conservation violation is reported under. *)
  let cursors, barrier_every, conserve, caller =
    match source with
    | Workload_source.Workload p ->
      ( Workload.cursors p ~threads ~seed ~scale,
        p.Workload.barrier_every,
        Some p,
        "Runner.run" )
    | Workload_source.Program { program; _ } ->
      (Array.map Program.cursor program, None, None, "Runner.run")
    | Workload_source.Replay ol ->
      ([||], None, Some ol.Workload_source.body, "Runner.replay")
  in
  if threads <= 0 || threads > machine.Config.cores then
    invalid_arg "Runner.run: thread count out of range";
  let core_of = place ~placement ~cores:machine.Config.cores ~threads in
  let sim, net, protocol = Config.build machine in
  let store = Store.create ~cores:machine.Config.cores in
  let runtime =
    Runtime.create ~protocol ~store ~sysconf ~lock_addr:Workload.lock_addr ()
  in
  let oracle = Runtime.enable_oracle runtime in
  on_runtime runtime;
  let tele =
    Option.map
      (fun req ->
        ( req,
          Telemetry.attach ~interval:req.sample_interval
            ~capacity:req.sample_capacity runtime ))
      telemetry
  in
  let sanitizer =
    if check then Some (Lk_check.Sanitizer.attach runtime) else None
  in
  let acct = Accounting.create ~cores:machine.Config.cores in
  let finished = ref 0 in
  let cpus =
    Array.init threads (fun i ->
        Core.spawn ~runtime ~core:(core_of i) ~accounting:acct
          ~on_done:(fun () -> incr finished)
          ())
  in
  let tally = Option.map Workload.tally conserve in
  let draw = match tally with None -> Fun.id | Some t -> Workload.count t in
  let open_loop_stats =
    match source with
    | Workload_source.Replay ol ->
      Some
        (feed_open_loop ~sim ~cpus ~draw ~tele:(Option.map snd tele) ~seed
           ~label ol)
    | Workload_source.Workload _ | Workload_source.Program _ ->
      let barrier =
        Option.map
          (fun k -> (Lk_cpu.Barrier.create ~parties:threads, k))
          barrier_every
      in
      Array.iteri
        (fun i (c : Program.cursor) ->
          Core.drive ?barrier cpus.(i)
            { c with Program.next = (fun () -> draw (c.Program.next ())) })
        cursors;
      None
  in
  let (), perf_sample =
    Perf.observe sim (fun () -> Sim.run ~limit:cycle_limit sim)
  in
  Perf.note perf_sample;
  let open_loop = Option.map (fun stats -> stats ()) open_loop_stats in
  check_run ~label ~threads ~finished:!finished ~protocol ~oracle ~sanitizer;
  (* Cores without a thread never run a transaction, so the sum over
     every core is the sum over the threads' cores. *)
  let sum = Runtime.total_stats runtime in
  let by_reason counts =
    List.map (fun r -> (r, counts.(Reason.index r))) Reason.all
  in
  Option.iter (fun (req, handle) -> req.consume handle) tele;
  let latency = Runtime.tx_latency_hdr runtime in
  let result =
    {
      system = sysconf.Sysconf.name;
      workload = Workload_source.name source;
      threads;
      cache = machine.Config.cache;
      cycles =
        Array.fold_left (fun acc cpu -> max acc (Core.finish_time cpu)) 0 cpus;
      commit_rate = Runtime.commit_rate runtime;
      htm_commits = sum.Runtime.commits;
      stl_commits = sum.Runtime.stl_commits;
      lock_commits = sum.Runtime.lock_commits;
      sw_commits = sum.Runtime.sw_commits;
      aborts = sum.Runtime.aborts;
      abort_mix = by_reason sum.Runtime.abort_reasons;
      wasted_cycles = sum.Runtime.wasted;
      wasted_by_reason = by_reason sum.Runtime.wasted_by_reason;
      breakdown = Accounting.total acct;
      rejects = sum.Runtime.rejects_received;
      parks = sum.Runtime.parks;
      wakeups = Runtime.wakeups runtime;
      switches_granted = Runtime.switches_granted runtime;
      switches_denied = Runtime.switches_denied runtime;
      spilled_lines = Runtime.spilled_lines runtime;
      lock_dwell_cycles = Runtime.lock_dwell_cycles runtime;
      clock_advances = Runtime.clock_advances runtime;
      watchdog_rescues = Runtime.watchdog_rescues runtime;
      network_messages = Network.messages_sent net;
      network_flits = Network.flits_sent net;
      oracle_sections = Lk_htm.Oracle.size oracle;
      avg_attempts_per_commit =
        (if sum.Runtime.commits = 0 then 0.0
         else
           float_of_int sum.Runtime.attempts_at_commit
           /. float_of_int sum.Runtime.commits);
      tx_latency_p50 = Stats.percentile latency 50.;
      tx_latency_p95 = Stats.percentile latency 95.;
      tx_latency_p99 = Stats.percentile latency 99.;
      open_loop;
    }
  in
  Option.iter (check_conservation ~caller ~label ~store) tally;
  result

let run ?(options = default_options) ~sysconf ~workload ~threads () =
  execute ~options ~sysconf ~threads (Workload_source.Workload workload)

let run_program ?(options = default_options) ?(name = "custom") ~sysconf
    ~program () =
  execute ~options ~sysconf ~threads:(Array.length program)
    (Workload_source.Program { name; program })

let replay ?(options = default_options) ~sysconf ~open_loop ~threads () =
  execute ~options ~sysconf ~threads (Workload_source.Replay open_loop)

let run_source ?(options = default_options) ~sysconf ~source ~threads () =
  (match (source : Workload_source.t) with
  | Workload_source.Program { program; _ } when Array.length program <> threads
    ->
    invalid_arg
      (Printf.sprintf
         "Runner.run_source: %d threads requested but the program has %d"
         threads (Array.length program))
  | Workload_source.Workload _ | Workload_source.Program _
  | Workload_source.Replay _ ->
    ());
  execute ~options ~sysconf ~threads source

let abort_fraction r reason =
  if r.aborts = 0 then 0.0
  else
    float_of_int (List.assoc reason r.abort_mix) /. float_of_int r.aborts

(* --- JSON codec --------------------------------------------------------- *)

(* The encoding is declared once, as one table of members per record:
   each row names a JSON member and says how to read it off the record
   and write it back. Encode, decode and the flat column view (CSV,
   compare) all walk these tables, so a member name is spelled only
   here. The cache and the CLI's [--format json] share the encoding, so
   round-tripping is exercised on every warm-cache run. *)

let ( let* ) = Result.bind

(* How one value type maps to JSON and back. *)
type 'a codec = {
  enc : 'a -> Json.t;
  dec : Json.t -> ('a, string) Stdlib.result;
}

(* One member of a record ['r]; [decode] stores the member's value into
   a partially decoded record. *)
type 'r row = {
  name : string;
  encode : 'r -> Json.t;
  decode : Json.t -> 'r -> ('r, string) Stdlib.result;
}

let row name c get set =
  {
    name;
    encode = (fun r -> c.enc (get r));
    decode = (fun j r -> Result.map (set r) (c.dec j));
  }

let int = { enc = (fun n -> Json.Int n); dec = Json.to_int }
let float = { enc = (fun f -> Json.Float f); dec = Json.to_float }
let string = { enc = (fun s -> Json.String s); dec = Json.to_str }

let cache_id =
  {
    enc = (fun c -> Json.String (Config.cache_profile_id c));
    dec =
      (fun j ->
        let* id = Json.to_str j in
        Option.to_result
          ~none:(Printf.sprintf "unknown cache profile %S" id)
          (Config.cache_profile_of_id id));
  }

(* Counts keyed by [label], one member per key of [all] in [all]'s
   order (paper order); unknown labels are ignored when decoding. *)
let labelled all label =
  {
    enc =
      (fun pairs ->
        Json.Obj (List.map (fun (k, n) -> (label k, Json.Int n)) pairs));
    dec =
      (fun j ->
        let* obj = Json.to_obj j in
        List.fold_left
          (fun acc k ->
            let* acc = acc in
            match List.assoc_opt (label k) obj with
            | Some (Json.Int n) -> Ok ((k, n) :: acc)
            | Some j ->
              Error
                (Printf.sprintf "%s: expected int, got %s" (label k)
                   (Json.to_string j))
            | None -> Error (Printf.sprintf "missing count for %S" (label k)))
          (Ok []) all
        |> Result.map List.rev);
  }

(* Completions per phase tag, keyed by the decimal tag, document order. *)
let phase_counts =
  {
    enc =
      (fun pairs ->
        Json.Obj
          (List.map (fun (phase, n) -> (string_of_int phase, Json.Int n)) pairs));
    dec =
      (fun j ->
        let* obj = Json.to_obj j in
        List.fold_left
          (fun acc (key, j) ->
            let* acc = acc in
            match (int_of_string_opt key, j) with
            | Some phase, Json.Int n when phase >= 0 -> Ok ((phase, n) :: acc)
            | _ ->
              Error
                (Printf.sprintf "bad entry %S: %s" key (Json.to_string j)))
          (Ok []) obj
        |> Result.map List.rev);
  }

let members rows r = List.map (fun row -> (row.name, row.encode r)) rows

(* Decode [rows] in order into [empty]; [Error] names the first missing
   or ill-typed member. *)
let decode_rows rows empty v =
  List.fold_left
    (fun acc row ->
      let* r = acc in
      let* j = Json.member row.name v in
      Result.map_error (fun e -> row.name ^ ": " ^ e) (row.decode j r))
    (Ok empty) rows

let record rows empty =
  { enc = (fun r -> Json.Obj (members rows r)); dec = decode_rows rows empty }

let nullable c =
  {
    enc = (function None -> Json.Null | Some x -> c.enc x);
    dec = (function Json.Null -> Ok None | j -> Result.map Option.some (c.dec j));
  }

let open_loop_rows =
  [
    row "arrivals" int (fun o -> o.arrivals)
      (fun o arrivals -> { o with arrivals });
    row "completed" int (fun o -> o.completed)
      (fun o completed -> { o with completed });
    row "max_backlog" int (fun o -> o.max_backlog)
      (fun o max_backlog -> { o with max_backlog });
    row "queue_delay_p50" int (fun o -> o.queue_delay_p50)
      (fun o queue_delay_p50 -> { o with queue_delay_p50 });
    row "queue_delay_p95" int (fun o -> o.queue_delay_p95)
      (fun o queue_delay_p95 -> { o with queue_delay_p95 });
    row "queue_delay_p99" int (fun o -> o.queue_delay_p99)
      (fun o queue_delay_p99 -> { o with queue_delay_p99 });
    row "sojourn_p50" int (fun o -> o.sojourn_p50)
      (fun o sojourn_p50 -> { o with sojourn_p50 });
    row "sojourn_p95" int (fun o -> o.sojourn_p95)
      (fun o sojourn_p95 -> { o with sojourn_p95 });
    row "sojourn_p99" int (fun o -> o.sojourn_p99)
      (fun o sojourn_p99 -> { o with sojourn_p99 });
    row "phase_mix" phase_counts (fun o -> o.phase_mix)
      (fun o phase_mix -> { o with phase_mix });
  ]

let empty_open_loop =
  {
    arrivals = 0;
    completed = 0;
    max_backlog = 0;
    queue_delay_p50 = 0;
    queue_delay_p95 = 0;
    queue_delay_p99 = 0;
    sojourn_p50 = 0;
    sojourn_p95 = 0;
    sojourn_p99 = 0;
    phase_mix = [];
  }

let reason_counts = labelled Reason.all Reason.label

(* Every member after the leading schema version, in encoding order. *)
let result_rows =
  [
    row "system" string (fun r -> r.system) (fun r system -> { r with system });
    row "workload" string (fun r -> r.workload)
      (fun r workload -> { r with workload });
    row "threads" int (fun r -> r.threads)
      (fun r threads -> { r with threads });
    row "cache" cache_id (fun r -> r.cache) (fun r cache -> { r with cache });
    row "cycles" int (fun r -> r.cycles) (fun r cycles -> { r with cycles });
    row "commit_rate" float (fun r -> r.commit_rate)
      (fun r commit_rate -> { r with commit_rate });
    row "htm_commits" int (fun r -> r.htm_commits)
      (fun r htm_commits -> { r with htm_commits });
    row "stl_commits" int (fun r -> r.stl_commits)
      (fun r stl_commits -> { r with stl_commits });
    row "lock_commits" int (fun r -> r.lock_commits)
      (fun r lock_commits -> { r with lock_commits });
    row "sw_commits" int (fun r -> r.sw_commits)
      (fun r sw_commits -> { r with sw_commits });
    row "aborts" int (fun r -> r.aborts) (fun r aborts -> { r with aborts });
    row "abort_mix" reason_counts (fun r -> r.abort_mix)
      (fun r abort_mix -> { r with abort_mix });
    row "wasted_cycles" int (fun r -> r.wasted_cycles)
      (fun r wasted_cycles -> { r with wasted_cycles });
    row "wasted_by_reason" reason_counts (fun r -> r.wasted_by_reason)
      (fun r wasted_by_reason -> { r with wasted_by_reason });
    row "breakdown"
      (labelled Accounting.categories Accounting.label)
      (fun r -> r.breakdown)
      (fun r breakdown -> { r with breakdown });
    row "rejects" int (fun r -> r.rejects)
      (fun r rejects -> { r with rejects });
    row "parks" int (fun r -> r.parks) (fun r parks -> { r with parks });
    row "wakeups" int (fun r -> r.wakeups)
      (fun r wakeups -> { r with wakeups });
    row "switches_granted" int (fun r -> r.switches_granted)
      (fun r switches_granted -> { r with switches_granted });
    row "switches_denied" int (fun r -> r.switches_denied)
      (fun r switches_denied -> { r with switches_denied });
    row "spilled_lines" int (fun r -> r.spilled_lines)
      (fun r spilled_lines -> { r with spilled_lines });
    row "lock_dwell_cycles" int (fun r -> r.lock_dwell_cycles)
      (fun r lock_dwell_cycles -> { r with lock_dwell_cycles });
    row "clock_advances" int (fun r -> r.clock_advances)
      (fun r clock_advances -> { r with clock_advances });
    row "watchdog_rescues" int (fun r -> r.watchdog_rescues)
      (fun r watchdog_rescues -> { r with watchdog_rescues });
    row "network_messages" int (fun r -> r.network_messages)
      (fun r network_messages -> { r with network_messages });
    row "network_flits" int (fun r -> r.network_flits)
      (fun r network_flits -> { r with network_flits });
    row "oracle_sections" int (fun r -> r.oracle_sections)
      (fun r oracle_sections -> { r with oracle_sections });
    row "avg_attempts_per_commit" float (fun r -> r.avg_attempts_per_commit)
      (fun r avg_attempts_per_commit -> { r with avg_attempts_per_commit });
    row "tx_latency_p50" int (fun r -> r.tx_latency_p50)
      (fun r tx_latency_p50 -> { r with tx_latency_p50 });
    row "tx_latency_p95" int (fun r -> r.tx_latency_p95)
      (fun r tx_latency_p95 -> { r with tx_latency_p95 });
    row "tx_latency_p99" int (fun r -> r.tx_latency_p99)
      (fun r tx_latency_p99 -> { r with tx_latency_p99 });
    row "open_loop"
      (nullable (record open_loop_rows empty_open_loop))
      (fun r -> r.open_loop)
      (fun r open_loop -> { r with open_loop });
  ]

let zero_result =
  {
    system = "";
    workload = "";
    threads = 0;
    cache = Config.Typical;
    cycles = 1;
    commit_rate = 0.0;
    htm_commits = 0;
    stl_commits = 0;
    lock_commits = 0;
    sw_commits = 0;
    aborts = 0;
    abort_mix = List.map (fun r -> (r, 0)) Reason.all;
    wasted_cycles = 0;
    wasted_by_reason = List.map (fun r -> (r, 0)) Reason.all;
    breakdown = List.map (fun c -> (c, 0)) Accounting.categories;
    rejects = 0;
    parks = 0;
    wakeups = 0;
    switches_granted = 0;
    switches_denied = 0;
    spilled_lines = 0;
    lock_dwell_cycles = 0;
    clock_advances = 0;
    watchdog_rescues = 0;
    network_messages = 0;
    network_flits = 0;
    oracle_sections = 0;
    avg_attempts_per_commit = 0.0;
    tx_latency_p50 = 0;
    tx_latency_p95 = 0;
    tx_latency_p99 = 0;
    open_loop = None;
  }

let schema_member = "schema"

let json_of_result r =
  Json.Obj ((schema_member, Json.Int Schema.version) :: members result_rows r)

let result_to_json r = Json.to_string (json_of_result r)

(* Nested objects (abort_mix, breakdown, open_loop with its phase_mix)
   become dotted columns, at any depth. *)
let columns ?(schema = true) r =
  let rec flatten prefix = function
    | Json.Obj sub ->
      List.concat_map
        (fun (k, v) -> flatten (if prefix = "" then k else prefix ^ "." ^ k) v)
        sub
    | v -> [ (prefix, v) ]
  in
  flatten ""
    (if schema then json_of_result r else Json.Obj (members result_rows r))

let schema_of_json v =
  match Json.member schema_member v with
  | Error _ ->
    Error
      (Printf.sprintf
         "missing %S member (result predates schema v%d); re-run to \
          regenerate"
         schema_member Schema.version)
  | Ok m -> Result.map_error (fun e -> schema_member ^ ": " ^ e) (Json.to_int m)

let result_of_json_value v =
  let* version = schema_of_json v in
  let* () = Schema.check version in
  decode_rows result_rows zero_result v

let result_of_json s =
  let* v = Json.of_string s in
  result_of_json_value v
