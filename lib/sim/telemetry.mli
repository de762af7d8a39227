(** Periodic time-series telemetry for a simulated machine.

    {!attach} schedules a sampler through the machine's own event
    queue: every [interval] cycles it snapshots a set of gauges into
    three fixed-capacity {!Lk_engine.Timeseries} rings —

    - {!phases}: one channel per core holding its
      {!Lk_lockiller.Runtime.phase_code} (non-tx / HTM / STL /
      lock-held / parked / aborting / software);
    - {!gauges}: machine-wide state — fallback-lock holders, arbiter
      hold state, overflow-signature populations, parked cores,
      wake-table occupancy, event-queue depth, transactional L1 lines,
      resident LLC lines, cumulative network flits and messages, the
      global version-clock value, the count of cores in a software
      (TL2) transaction, the open-loop replay backlog (see
      {!set_backlog_probe}; constant 0 in closed-loop runs);
    - {!links}: one channel per mesh link with its cumulative flit
      counter.

    The sampler is read-only and the sampling path is allocation-free
    (the test suite asserts < 0.01 minor words per sample), so
    attaching telemetry changes no simulation result. It re-arms
    itself only while other events remain queued, so it never keeps
    the simulation alive on its own.

    Exports ({!to_json} / {!to_csv} / {!write}) also carry summaries
    of the runtime's always-on latency histograms (tx latency,
    abort-to-retry gap, lock dwell) with p50/p90/p95/p99. Exports are
    deterministic: byte-identical across repeated runs and worker
    counts. *)

type t

val attach :
  ?interval:int -> ?capacity:int -> Lk_lockiller.Runtime.t -> t
(** [attach rt] takes a baseline sample immediately and then samples
    every [interval] cycles (default 1024) while the machine has work
    queued. Each ring retains the last [capacity] samples (default
    4096; earlier ones are counted by {!dropped}).
    @raise Invalid_argument if [interval <= 0]. *)

val interval : t -> int

val set_backlog_probe : t -> (unit -> int) -> unit
(** Install the gauge behind the [backlog] channel (and Perfetto
    counter track). The open-loop replay runner points this at its
    in-flight transaction counter; the default is a constant 0. The
    probe runs on the sampling path and must not allocate or perturb
    the machine. *)

val samples : t -> int
(** Total samples taken (including any no longer retained). *)

val dropped : t -> int
(** Samples lost to ring wraparound. *)

val phases : t -> Lk_engine.Timeseries.t
val gauges : t -> Lk_engine.Timeseries.t
val links : t -> Lk_engine.Timeseries.t

val gauge_channels : string list
(** Channel names of the {!gauges} ring, in slot order. *)

val sample_now : t -> unit
(** Take one sample at the current simulation time (the sampler calls
    this; exposed for tests, notably the allocation assertion). *)

val histograms : t -> (string * Lk_engine.Stats.hdr) list
(** The runtime's always-on latency histograms, by export name:
    [tx_latency], [retry_gap], [lock_dwell]. *)

val perfetto_counters : t -> Json.t list
(** The retained samples as Chrome trace-event counter tracks (ph
    ["C"]): one [phase core N] track per core, [signature fill]
    (rd/wr series), [queue depth], [cores waiting]
    (lock-holders/parked series), [hybrid sw] (clock value and
    software-transaction population), [backlog] (open-loop in-flight
    transactions) and [link utilization] (per-sample flit deltas summed
    over all links).
    {!Tracing.write_perfetto} appends these to the slice/instant
    events. *)

val to_json : t -> string
(** Pretty-printed JSON document: interval, sample count, the three
    rings (channel names + rows of [[time, v0, v1, ...]]) and the
    histogram summaries. *)

val to_csv : t -> string
(** One wide CSV: a [time] column followed by every channel of the
    three rings (they sample in lockstep, so rows align). *)

val write : t -> file:string -> unit
(** Write {!to_csv} if [file] ends in [.csv], {!to_json} otherwise. *)
