module Sim = Lk_engine.Sim

(* Wall-clock and allocation probes around simulator work.

   A [probe] captures the wall clock and this domain's minor-heap
   allocation counter ([Gc.minor_words]: it counts up to the current
   minor-heap pointer, where [Gc.quick_stat] may lag by everything
   since the last minor collection, and it does not allocate in native
   code); [stop] turns the deltas plus the caller's
   event/cycle counts into a [sample]. Samples from every simulation in
   the process (including pool domains — the counters are atomics) are
   additionally folded into a global aggregate, which `lockiller_sim
   experiment` reads to print a per-experiment wall-clock/throughput
   line. *)

type sample = {
  wall_seconds : float;
  minor_words : float;  (** Minor-heap words allocated in the window. *)
  events : int;  (** Simulator events fired in the window. *)
  cycles : int;  (** Simulated cycles covered by the window. *)
}

type probe = { p_wall : float; p_minor : float }

let start () = { p_wall = Unix.gettimeofday (); p_minor = Gc.minor_words () }

let stop probe ~events ~cycles =
  let minor = Gc.minor_words () in
  {
    wall_seconds = Unix.gettimeofday () -. probe.p_wall;
    minor_words = minor -. probe.p_minor;
    events;
    cycles;
  }

let per_second n sample =
  if sample.wall_seconds <= 0.0 then 0.0
  else float_of_int n /. sample.wall_seconds

let events_per_sec s = per_second s.events s
let cycles_per_sec s = per_second s.cycles s

let minor_words_per_event s =
  if s.events = 0 then 0.0 else s.minor_words /. float_of_int s.events

let json_of_sample s =
  Json.Obj
    [
      ("wall_seconds", Json.Float s.wall_seconds);
      ("events", Json.Int s.events);
      ("cycles", Json.Int s.cycles);
      ("minor_words", Json.Float s.minor_words);
      ("events_per_sec", Json.Float (events_per_sec s));
      ("cycles_per_sec", Json.Float (cycles_per_sec s));
      ("minor_words_per_event", Json.Float (minor_words_per_event s));
    ]

(* Run [f] with a probe, reading event/cycle deltas from [sim]. *)
let observe sim f =
  let e0 = Sim.events sim and c0 = Sim.now sim in
  let probe = start () in
  let x = f () in
  let s =
    stop probe ~events:(Sim.events sim - e0) ~cycles:(Sim.now sim - c0)
  in
  (x, s)

(* --- process-wide aggregate ------------------------------------------ *)

type totals = {
  runs : int;
  total_wall_seconds : float;
  total_events : int;
  total_cycles : int;
  total_minor_words : float;
}

(* Atomics so pool domains contribute safely; wall time and minor words
   are kept in integer microseconds/words (atomic float add does not
   exist). *)
let g_runs = Atomic.make 0
let g_wall_us = Atomic.make 0
let g_events = Atomic.make 0
let g_cycles = Atomic.make 0
let g_minor = Atomic.make 0

let note s =
  Atomic.incr g_runs;
  ignore
    (Atomic.fetch_and_add g_wall_us
       (int_of_float (s.wall_seconds *. 1_000_000.)));
  ignore (Atomic.fetch_and_add g_events s.events);
  ignore (Atomic.fetch_and_add g_cycles s.cycles);
  ignore (Atomic.fetch_and_add g_minor (int_of_float s.minor_words))

let totals () =
  {
    runs = Atomic.get g_runs;
    total_wall_seconds = float_of_int (Atomic.get g_wall_us) /. 1_000_000.;
    total_events = Atomic.get g_events;
    total_cycles = Atomic.get g_cycles;
    total_minor_words = float_of_int (Atomic.get g_minor);
  }

let reset_totals () =
  Atomic.set g_runs 0;
  Atomic.set g_wall_us 0;
  Atomic.set g_events 0;
  Atomic.set g_cycles 0;
  Atomic.set g_minor 0

let pp_rate ppf r =
  if r >= 1e9 then Format.fprintf ppf "%.2fG" (r /. 1e9)
  else if r >= 1e6 then Format.fprintf ppf "%.2fM" (r /. 1e6)
  else if r >= 1e3 then Format.fprintf ppf "%.1fk" (r /. 1e3)
  else Format.fprintf ppf "%.0f" r

let pp_totals ppf t =
  let rate n =
    if t.total_wall_seconds <= 0.0 then 0.0
    else float_of_int n /. t.total_wall_seconds
  in
  let wpe =
    if t.total_events = 0 then 0.0
    else t.total_minor_words /. float_of_int t.total_events
  in
  Format.fprintf ppf
    "%d sims, %.1fs sim-wall, %a events/s, %a cycles/s, %.1f minor words/event"
    t.runs t.total_wall_seconds pp_rate (rate t.total_events) pp_rate
    (rate t.total_cycles) wpe
