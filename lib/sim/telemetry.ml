(* Periodic telemetry sampler.

   [attach] hooks a self-rescheduling sampler event into the existing
   event queue: every [interval] cycles it snapshots a set of gauges
   into three fixed-capacity {!Lk_engine.Timeseries} rings (per-core
   execution phase, machine-wide gauges, per-link flit counters). The
   sampler is strictly read-only — it never perturbs the machine — and
   the sampling path is allocation-free (asserted by the test suite),
   so enabling telemetry changes no simulation result.

   Termination: after each sample the event re-arms itself only while
   other work remains in the queue ([Sim.pending] > 0). It must never
   re-arm from a quiescence hook — that would keep the simulation
   alive to the cycle limit. *)

module Sim = Lk_engine.Sim
module Stats = Lk_engine.Stats
module Timeseries = Lk_engine.Timeseries
module Protocol = Lk_coherence.Protocol
module L1 = Lk_coherence.L1_cache
module Llc = Lk_coherence.Llc
module Network = Lk_mesh.Network
module Runtime = Lk_lockiller.Runtime

(* Machine-wide gauge channels, in slot order. *)
let gauge_channels =
  [
    "lock_holders";  (* cores holding the fallback spinlock *)
    "arbiter";  (* 1 when the HTMLock/switching authorization is held *)
    "sig_rd";  (* overflow read-signature population (set bits) *)
    "sig_wr";  (* overflow write-signature population *)
    "parked";  (* cores parked waiting for a wake-up *)
    "wake_pending";  (* recorded (rejector, waiter) pairs *)
    "queue_depth";  (* simulator events pending (sampler excluded) *)
    "l1_tx_lines";  (* transactionally marked L1 lines, all cores *)
    "llc_lines";  (* resident LLC lines *)
    "flits";  (* cumulative network flits sent *)
    "messages";  (* cumulative network messages sent *)
    "clock";  (* global version-clock value (hybrid-TM comparators) *)
    "sw_mode";  (* cores running a software (TL2) transaction *)
    "backlog";  (* open-loop replay: transactions arrived but unfinished *)
  ]

let g_lock_holders = 0
let g_arbiter = 1
let g_sig_rd = 2
let g_sig_wr = 3
let g_parked = 4
let g_wake_pending = 5
let g_queue_depth = 6
let g_l1_tx_lines = 7
let g_llc_lines = 8
let g_flits = 9
let g_messages = 10
let g_clock = 11
let g_sw_mode = 12
let g_backlog = 13

type t = {
  rt : Runtime.t;
  sim : Sim.t;
  proto : Protocol.t;
  net : Network.t;
  llc : Llc.t;
  cores : int;
  interval : int;
  phases : Timeseries.t;
  gauges : Timeseries.t;
  links : Timeseries.t;
  (* Every link's cumulative flits, read from the network in one pass
     at each sample. *)
  link_totals : int array;
  (* Scratch accumulator for the counting loops below: sampling must
     not allocate, so no refs and no closures on this path. *)
  mutable acc : int;
  (* Open-loop backlog gauge. The replay runner installs a probe over
     its in-flight counter; closed-loop runs leave the default constant
     0. Must not allocate. *)
  mutable backlog_probe : unit -> int;
}

let interval t = t.interval
let set_backlog_probe t f = t.backlog_probe <- f
let phases t = t.phases
let gauges t = t.gauges
let links t = t.links
let samples t = Timeseries.recorded t.phases
let dropped t = Timeseries.dropped t.phases

let sample_now t =
  let time = Sim.now t.sim in
  (* Per-core phase codes. *)
  for c = 0 to t.cores - 1 do
    Timeseries.set t.phases c (Runtime.phase_code t.rt c)
  done;
  Timeseries.commit t.phases ~time;
  (* Machine-wide gauges. *)
  t.acc <- 0;
  for c = 0 to t.cores - 1 do
    if Runtime.holds_lock t.rt c then t.acc <- t.acc + 1
  done;
  Timeseries.set t.gauges g_lock_holders t.acc;
  Timeseries.set t.gauges g_arbiter
    (if Runtime.arbiter_engaged t.rt then 1 else 0);
  Timeseries.set t.gauges g_sig_rd (Runtime.sig_rd_population t.rt);
  Timeseries.set t.gauges g_sig_wr (Runtime.sig_wr_population t.rt);
  t.acc <- 0;
  for c = 0 to t.cores - 1 do
    if Runtime.is_parked t.rt c then t.acc <- t.acc + 1
  done;
  Timeseries.set t.gauges g_parked t.acc;
  Timeseries.set t.gauges g_wake_pending (Runtime.wake_pending t.rt);
  Timeseries.set t.gauges g_queue_depth (Sim.pending t.sim);
  t.acc <- 0;
  for c = 0 to t.cores - 1 do
    t.acc <- t.acc + L1.tx_count (Protocol.l1 t.proto c)
  done;
  Timeseries.set t.gauges g_l1_tx_lines t.acc;
  Timeseries.set t.gauges g_llc_lines (Llc.occupancy t.llc);
  Timeseries.set t.gauges g_flits (Network.flits_sent t.net);
  Timeseries.set t.gauges g_messages (Network.messages_sent t.net);
  Timeseries.set t.gauges g_clock (Runtime.clock_value t.rt);
  Timeseries.set t.gauges g_sw_mode (Runtime.sw_population t.rt);
  Timeseries.set t.gauges g_backlog (t.backlog_probe ());
  Timeseries.commit t.gauges ~time;
  (* Per-link cumulative flit counters. *)
  Network.read_link_flits t.net t.link_totals;
  for i = 0 to Array.length t.link_totals - 1 do
    Timeseries.set t.links i t.link_totals.(i)
  done;
  Timeseries.commit t.links ~time

let attach ?(interval = 1024) ?(capacity = 4096) rt =
  if interval <= 0 then
    invalid_arg "Telemetry.attach: interval must be positive";
  let proto = Runtime.protocol rt in
  let sim = Protocol.sim proto in
  let net = Protocol.network proto in
  (* The link gauges read per-link flits, which the network counts
     only from here on. *)
  Network.charge_links net;
  let cores = (Protocol.config proto).Protocol.cores in
  let core_channels = List.init cores (fun c -> Printf.sprintf "core%d" c) in
  let link_channels =
    List.init (Network.num_links net) (fun i -> Printf.sprintf "link%d" i)
  in
  let t =
    {
      rt;
      sim;
      proto;
      net;
      llc = Protocol.llc proto;
      cores;
      interval;
      phases = Timeseries.create ~capacity ~channels:core_channels ();
      gauges = Timeseries.create ~capacity ~channels:gauge_channels ();
      links = Timeseries.create ~capacity ~channels:link_channels ();
      link_totals = Array.make (Network.num_links net) 0;
      acc = 0;
      backlog_probe = (fun () -> 0);
    }
  in
  (* One closure, allocated here once; re-arming it reuses a slot of
     the kernel's closure table, so steady-state sampling allocates
     nothing. *)
  let rec tick () =
    sample_now t;
    if Sim.pending sim > 0 then Sim.schedule sim ~delay:t.interval tick
  in
  (* Baseline row at attach time, then periodic samples while the
     machine still has work. *)
  sample_now t;
  Sim.schedule sim ~delay:interval tick;
  t

(* --- Histogram summaries ---------------------------------------------- *)

let json_of_hdr d =
  Json.Obj
    [
      ("count", Json.Int (Stats.hdr_count d));
      ("sum", Json.Int (Stats.hdr_sum d));
      ("mean", Json.Float (Stats.hdr_mean d));
      ("min", Json.Int (match Stats.hdr_min d with Some v -> v | None -> 0));
      ("max", Json.Int (match Stats.hdr_max d with Some v -> v | None -> 0));
      ("p50", Json.Int (Stats.percentile d 50.));
      ("p90", Json.Int (Stats.percentile d 90.));
      ("p95", Json.Int (Stats.percentile d 95.));
      ("p99", Json.Int (Stats.percentile d 99.));
    ]

let histograms t =
  [
    ("tx_latency", Runtime.tx_latency_hdr t.rt);
    ("retry_gap", Runtime.retry_gap_hdr t.rt);
    ("lock_dwell", Runtime.lock_dwell_hdr t.rt);
  ]

(* --- Perfetto counter tracks ------------------------------------------- *)

(* Chrome trace-event counters: ph "C", numeric [args] members become
   stacked series on one counter track. *)
let counter ~name ~ts ~args =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "C");
      ("ts", Json.Int ts);
      ("pid", Json.Int 0);
      ("args", Json.Obj args);
    ]

let perfetto_counters t =
  let out = ref [] in
  let push e = out := e :: !out in
  Timeseries.iter t.phases (fun ~time ~row ->
      Array.iteri
        (fun c v ->
          push
            (counter
               ~name:(Printf.sprintf "phase core %d" c)
               ~ts:time
               ~args:[ ("phase", Json.Int v) ]))
        row);
  Timeseries.iter t.gauges (fun ~time ~row ->
      push
        (counter ~name:"signature fill" ~ts:time
           ~args:
             [
               ("rd", Json.Int row.(g_sig_rd));
               ("wr", Json.Int row.(g_sig_wr));
             ]);
      push
        (counter ~name:"queue depth" ~ts:time
           ~args:[ ("events", Json.Int row.(g_queue_depth)) ]);
      push
        (counter ~name:"cores waiting" ~ts:time
           ~args:
             [
               ("lock_holders", Json.Int row.(g_lock_holders));
               ("parked", Json.Int row.(g_parked));
             ]);
      push
        (counter ~name:"hybrid sw" ~ts:time
           ~args:
             [
               ("clock", Json.Int row.(g_clock));
               ("sw_mode", Json.Int row.(g_sw_mode));
             ]);
      push
        (counter ~name:"backlog" ~ts:time
           ~args:[ ("inflight", Json.Int row.(g_backlog)) ]));
  (* Link counters are cumulative; the track shows per-sample deltas
     (flits moved since the previous sample) summed over all links. *)
  let prev = ref 0 in
  Timeseries.iter t.links (fun ~time ~row ->
      let total = Array.fold_left ( + ) 0 row in
      push
        (counter ~name:"link utilization" ~ts:time
           ~args:[ ("flits", Json.Int (total - !prev)) ]);
      prev := total);
  List.rev !out

(* --- Export ------------------------------------------------------------ *)

let json_of_ring ts =
  let rows = ref [] in
  Timeseries.iter ts (fun ~time ~row ->
      let cells =
        Json.Int time :: Array.to_list (Array.map (fun v -> Json.Int v) row)
      in
      rows := Json.List cells :: !rows);
  Json.Obj
    [
      ( "channels",
        Json.List
          (List.map (fun c -> Json.String c) (Timeseries.channels ts)) );
      ("dropped", Json.Int (Timeseries.dropped ts));
      ("rows", Json.List (List.rev !rows));
    ]

let to_json_value t =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("interval", Json.Int t.interval);
      ("samples", Json.Int (samples t));
      ("phases", json_of_ring t.phases);
      ("gauges", json_of_ring t.gauges);
      ("links", json_of_ring t.links);
      ( "histograms",
        Json.Obj
          (List.map (fun (name, d) -> (name, json_of_hdr d)) (histograms t))
      );
    ]

let to_json t = Json.to_string_pretty (to_json_value t)

(* One wide CSV: the three rings commit in lockstep (same times, same
   capacity), so their rows zip into one line per sample. *)
let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "time";
  List.iter
    (fun ts ->
      List.iter
        (fun c ->
          Buffer.add_char buf ',';
          Buffer.add_string buf c)
        (Timeseries.channels ts))
    [ t.phases; t.gauges; t.links ];
  Buffer.add_char buf '\n';
  let n = Timeseries.length t.phases in
  for s = 0 to n - 1 do
    Buffer.add_string buf (string_of_int (Timeseries.time t.phases ~sample:s));
    List.iter
      (fun ts ->
        for ch = 0 to Timeseries.width ts - 1 do
          Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int (Timeseries.get ts ~sample:s ~channel:ch))
        done)
      [ t.phases; t.gauges; t.links ];
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let write t ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if Filename.check_suffix file ".csv" then output_string oc (to_csv t)
      else begin
        output_string oc (to_json t);
        output_char oc '\n'
      end)
