(** Run one (system, workload, threads) combination to completion and
    collect every metric the paper reports.

    Each run verifies its own correctness twice over: the committed
    values of the workload's hot records must equal the increments its
    transactions perform, counted as each body is drawn (conservation),
    and the serializability
    oracle replays each critical section against a model store as it
    commits and checks every observed read ({!Lk_htm.Oracle}), in
    memory bounded by the addresses touched. These checks run on every
    simulation, not only in the test suite. *)

(** Where the participating threads sit on the fabric. The paper pins
    thread [i] to core [i] ([Compact]); [Spread] distributes them
    evenly over the tiles, changing every NoC distance (home banks are
    always interleaved over all tiles). *)
type placement = Compact | Spread

(** Open-loop replay statistics, present on results produced by
    {!replay} / {!run_source} with a [Replay] source. Delays are in
    cycles, from the same log-linear histograms as the tx-latency
    percentiles (<= ~3% bucketing error), recorded incrementally so
    replay memory is independent of trace length. *)
type open_loop_stats = {
  arrivals : int;  (** Trace records ingested. *)
  completed : int;  (** Transactions that ran to completion. *)
  max_backlog : int;
      (** Peak number of arrivals admitted but not yet completed — the
          high-water mark of the service queues. *)
  queue_delay_p50 : int;
      (** Median arrival-to-service-start wait in cycles. *)
  queue_delay_p95 : int;
  queue_delay_p99 : int;
  sojourn_p50 : int;
      (** Median arrival-to-completion time in cycles (queueing delay
          plus service). *)
  sojourn_p95 : int;
  sojourn_p99 : int;
  phase_mix : (int * int) list;
      (** Completions per trace phase tag, nonzero phases only,
          increasing phase order. *)
}

type result = {
  system : string;
  workload : string;
  threads : int;
  cache : Config.cache_profile;
  cycles : int;  (** Completion time (the slowest thread's finish). *)
  commit_rate : float;
      (** Committed critical sections (HTM + software) / attempts. *)
  htm_commits : int;
  stl_commits : int;
  lock_commits : int;
  sw_commits : int;
      (** Commits on the TL2-style software fallback path of the
          hybrid-TM comparators (0 under the CGL fallback). *)
  aborts : int;
  abort_mix : (Lk_htm.Reason.t * int) list;
      (** Counts per reason, paper order. *)
  wasted_cycles : int;
      (** Cycles of work inside transactional attempts that aborted,
          summed over every abort on every participating core.
          Deliberate stalls (reject back-off pauses, time parked on a
          wake-up list) are excluded — a stalled core wastes nothing
          while it waits, so systems that stall-and-retry are not
          charged for their patience. Always on: the accounting never
          depends on the ledger or the profiler being attached. *)
  wasted_by_reason : (Lk_htm.Reason.t * int) list;
      (** [wasted_cycles] split by abort reason, paper order. *)
  breakdown : (Lk_cpu.Accounting.category * int) list;
      (** Execution-time categories summed over participating cores. *)
  rejects : int;
  parks : int;
  wakeups : int;
  switches_granted : int;
  switches_denied : int;
  spilled_lines : int;
  lock_dwell_cycles : int;
      (** Cycles the fallback spinlock was held, summed over all
          acquisitions (acquire-to-release, per the event ledger's
          clock). High dwell with low [lock_commits] flags convoying. *)
  clock_advances : int;
      (** Global version-clock advances (GV1 writer commits plus GV5
          reader catch-ups); 0 outside the hybrid-TM comparators. *)
  watchdog_rescues : int;
  network_messages : int;
  network_flits : int;
  oracle_sections : int;
      (** Critical sections checked by the serializability oracle. *)
  avg_attempts_per_commit : float;
      (** Mean HTM attempts a committed transaction needed (1.0 =
          everything committed first try); 0 when nothing committed
          speculatively. *)
  tx_latency_p50 : int;
      (** Median critical-section latency in cycles: first attempt
          ([xbegin]/[hlbegin]) to commit, across HTM, STL and fallback
          completions — from the runtime's always-on log-linear
          histogram (see {!Lk_lockiller.Runtime.tx_latency_hdr}), so
          values carry its <= ~3% bucketing error. 0 when no critical
          section completed. *)
  tx_latency_p95 : int;  (** 95th percentile of the same histogram. *)
  tx_latency_p99 : int;  (** 99th percentile of the same histogram. *)
  open_loop : open_loop_stats option;
      (** [Some] on open-loop replay results, [None] on closed-loop
          runs. *)
}

type telemetry_request = {
  sample_interval : int;  (** Sampling period in cycles. *)
  sample_capacity : int;  (** Ring capacity in samples. *)
  consume : Telemetry.t -> unit;
      (** Called with the attached sampler after the run completes
          (e.g. to {!Telemetry.write} an export). *)
}

val telemetry_request :
  ?interval:int -> ?capacity:int -> (Telemetry.t -> unit) -> telemetry_request
(** Convenience constructor with {!Telemetry.attach}'s defaults
    (interval 1024 cycles, capacity 4096 samples). *)

type options = {
  seed : int;  (** Workload-generation RNG seed. *)
  scale : float;  (** Multiplier on transactions per thread. *)
  machine : Config.t;
      (** The simulated machine (Table I by default); build variants
          with {!Config.machine}. *)
  on_runtime : Lk_lockiller.Runtime.t -> unit;
      (** Called with the freshly built runtime before any core starts
          — use it to enable tracing or keep a handle for post-run
          inspection. Excluded from cache keys: runs that need it must
          bypass the {!Cache}. *)
  placement : placement;  (** Thread-to-tile binding, see {!placement}. *)
  cycle_limit : int;  (** Runaway guard; exceeding it is a [Failure]. *)
  check : bool;
      (** Attach the invariant sanitizer ({!Lk_check.Sanitizer}): the
          event-level invariant predicates run at every ledger emission
          and the end-of-run checks after the last thread finishes; any
          violation fails the run with a diagnostic. Does not change
          simulated behaviour, so — like [on_runtime] — it is
          excluded from cache keys (a warm-cache hit skips the run and
          therefore the checks; use the cache-bypassing paths to force
          a checked execution). Default false: no sink is installed and
          the only cost is the ledger's per-emission [None] branch. *)
  telemetry : telemetry_request option;
      (** Attach the periodic {!Telemetry} sampler and hand the result
          to [consume] after the run. The sampler is read-only and
          allocation-free, so it changes no simulation result — like
          [on_runtime] it is excluded from cache keys (a warm-cache hit
          skips the run and produces no telemetry; bypass the cache to
          force a sampled execution). Default [None]: zero cost. *)
}
(** Everything a run needs besides the system, the source and the
    thread count. Build variations with record update:
    [{ Runner.default_options with seed = 7 }]. *)

val default_options : options
(** Seed 1, scale 1.0, the paper's 32-core machine,
    no [on_runtime] hook, [Compact] placement, a 2^30-cycle guard, the
    wheel event queue, checking off. *)

(** {1 Running}

    Every entry point below is one call to the same execution path,
    which dispatches on the {!Workload_source.t}: it builds the machine
    from [options], feeds the cores (closed-loop cursors or the
    open-loop feeder), runs, checks and collects the {!result}. They
    differ only in the source they wrap and the input checks named
    after them. *)

val run_source :
  ?options:options ->
  sysconf:Lk_lockiller.Sysconf.t ->
  source:Workload_source.t ->
  threads:int ->
  unit ->
  result
(** Run any workload source: [Workload] as {!run}, [Program] as
    {!run_program} ([threads] must equal the program's width), [Replay]
    as {!replay}. *)

val run :
  ?options:options ->
  sysconf:Lk_lockiller.Sysconf.t ->
  workload:Lk_stamp.Workload.profile ->
  threads:int ->
  unit ->
  result
(** Closed-loop run: each thread draws its next transaction from
    {!Lk_stamp.Workload.cursors} when the previous one completes, so
    the workload costs O(threads) memory, not O(transactions).
    [?options] defaults to {!default_options}; build variations with
    record update ([{ Runner.default_options with seed = 7 }]).

    [threads] must not exceed the machine's cores. Raises [Failure] if
    the run violates conservation or serializability, leaves a thread
    unfinished, or exceeds the cycle limit (a livelock diagnostic, not
    an expected outcome). *)

val run_program :
  ?options:options ->
  ?name:string ->
  sysconf:Lk_lockiller.Sysconf.t ->
  program:Lk_cpu.Program.t ->
  unit ->
  result
(** Run a hand-written program (e.g. parsed with
    {!Lk_cpu.Program.of_text}): one thread per array slot, threads must
    fit the machine. The serializability oracle and protocol invariants
    still verify the run; there is no conservation check (the runner
    does not know the program's intent). The program must use addresses
    clear of the reserved lock/clock/gate lines (bytes 0-255).
    [options.seed] and [options.scale] are ignored. *)

val replay :
  ?options:options ->
  sysconf:Lk_lockiller.Sysconf.t ->
  open_loop:Workload_source.open_loop ->
  threads:int ->
  unit ->
  result
(** Open-loop replay: [threads] cores serve the arrival stream.
    Each record is admitted at its arrival cycle (immediately if the
    trace is behind simulated time), queued FIFO at a core — its own
    [core mod threads] when it has affinity, round-robin otherwise —
    and its body is synthesised from [open_loop.body] plus the record's
    footprint only when service begins, so memory use is
    O(threads + backlog), independent of trace length. The result's
    [open_loop] field reports arrivals, queueing-delay and sojourn
    percentiles, peak backlog and the per-phase completion mix;
    [options.scale] is ignored (the trace dictates offered load).

    The serializability oracle checks each section as it commits and
    keeps only the model store, so it preserves that bound. Raises
    [Failure] on a malformed or
    non-monotone trace (the feeder's position-tagged error) or an
    out-of-range record ({!Lk_trace.Record.validate}, applied to every
    record the feeder pulls), and on the same
    conservation/serializability/invariant violations as {!run}. *)

val abort_fraction : result -> Lk_htm.Reason.t -> float
(** Share of a reason among all aborts (0 when no aborts). *)

val zero_result : result
(** A result with every count 0 and every [abort_mix],
    [wasted_by_reason] and [breakdown] key present, but [cycles = 1], so
    ratios over it stay finite: the value an experiment's planning pass
    hands its renderers, and the seed the decoder fills. *)

(** {1 Serialisation}

    The machine-readable results API: one JSON object per {!result},
    one member per field in declaration order; [abort_mix],
    [wasted_by_reason] and [breakdown] are label-keyed objects (paper
    labels, paper order). One table of members in the implementation
    drives the encoder, the decoder and {!columns}.
    The on-disk {!Cache} stores exactly this encoding, so every
    warm-cache run round-trips it.

    Since schema v4 the object leads with a ["schema"] member
    ({!Schema.version}); the decoder rejects documents whose version is
    missing, older or newer with an explanatory error (see
    {!Schema.check}). The trailing ["open_loop"] member is [null] for
    closed-loop results. *)

val json_of_result : result -> Json.t

val result_to_json : result -> string
(** Compact single-line JSON. *)

val result_of_json : string -> (result, string) Stdlib.result
(** Inverse of {!result_to_json}; [Error] names the first missing or
    ill-typed member in encoding order. Floats round-trip exactly
    ([%.17g]). *)

val result_of_json_value : Json.t -> (result, string) Stdlib.result

val schema_of_json : Json.t -> (int, string) Stdlib.result
(** The schema version an encoded result declares, unchecked; [Error]
    when the member is missing or not an int. *)

val columns : ?schema:bool -> result -> (string * Json.t) list
(** The flat column view of a result, shared by CSV output and
    [compare]: every scalar leaf of {!json_of_result} in encoding order,
    nested members as dotted names ([abort_mix.mc],
    [open_loop.phase_mix.0]). A closed-loop result's [open_loop] is one
    [Null] column. [~schema:false] (default [true]) drops the leading
    schema-version column. *)
