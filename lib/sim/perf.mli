(** Wall-clock and allocation counters for the simulator hot loop.

    A probe brackets a stretch of work with [Unix.gettimeofday] and
    [Gc.minor_words] (the calling domain's allocation counter); combined with the simulator's event and cycle
    counters ({!Lk_engine.Sim.events}, {!Lk_engine.Sim.now}) this yields
    the three rates the perf harness tracks: events/sec, cycles/sec and
    minor-heap words allocated per event. {!Runner} records one sample
    per simulation into a process-wide aggregate (atomic counters, safe
    under the {!Pool} domains) that [lockiller_sim experiment] prints as
    a per-experiment throughput line. *)

type sample = {
  wall_seconds : float;
  minor_words : float;  (** Minor-heap words allocated in the window. *)
  events : int;  (** Simulator events fired in the window. *)
  cycles : int;  (** Simulated cycles covered by the window. *)
}

type probe

val start : unit -> probe
(** Capture the wall clock and allocation counter now. *)

val stop : probe -> events:int -> cycles:int -> sample
(** Close the window; the caller supplies its own event/cycle deltas
    (e.g. pop counts for a raw queue benchmark). *)

val observe : Lk_engine.Sim.t -> (unit -> 'a) -> 'a * sample
(** [observe sim f] runs [f ()] under a probe, reading the event and
    cycle deltas from [sim]. *)

val events_per_sec : sample -> float

val json_of_sample : sample -> Json.t
(** Object with the raw fields plus the three derived rates. *)

(** {1 Process-wide aggregate} *)

type totals = {
  runs : int;  (** Samples folded in (one per simulation). *)
  total_wall_seconds : float;
      (** Sum of per-simulation wall time — under the parallel pool this
          exceeds elapsed time. *)
  total_events : int;
  total_cycles : int;
  total_minor_words : float;
}

val note : sample -> unit
(** Fold a sample into the aggregate (atomic; any domain may call). *)

val totals : unit -> totals
val reset_totals : unit -> unit

val pp_totals : Format.formatter -> totals -> unit
(** One-line summary: sims, sim-wall seconds, events/s, cycles/s, minor
    words/event. *)
