(** The LockillerTM transactional runtime.

    One instance owns the per-core transactional contexts, the value
    layer, the wake-up tables, the overflow signatures and the HTMLock
    arbitration, and installs itself as the coherence protocol's
    conflict-policy client. It exposes the programming interface the
    simulated cores execute — the hardware primitives (xbegin / xend /
    hlbegin / hlend / ttest) plus the spinlock used both for the
    fallback path and for the CGL baseline.

    The behaviour is configured by a {!Sysconf.t}: with [recovery]
    off it is plain requester-win best-effort HTM; recovery enables
    NACK/reject arbitration under the configured priority scheme;
    [htmlock] lets lock transactions (TL) run concurrently with HTM
    transactions; [switching] adds the proactive HTM→STL switch on
    capacity overflow. *)

type t

type costs = {
  begin_cost : int;  (** xbegin checkpointing. *)
  commit_cost : int;  (** xend / hlend bookkeeping. *)
  abort_penalty : int;  (** Register restore + pipeline flush. *)
  fault_abort_penalty : int;
      (** Extra cost of an exception-induced abort: the fault must be
          resolved non-speculatively (page walk, OS handler) before the
          transaction can retry or fall back. *)
  fault_cost : int;  (** Exception handling inside HTMLock mode. *)
}

val default_costs : costs

val create :
  ?costs:costs ->
  ?inject_bug:Lk_coherence.Types.injected_fault ->
  protocol:Lk_coherence.Protocol.t ->
  store:Lk_htm.Store.t ->
  sysconf:Sysconf.t ->
  lock_addr:int ->
  unit ->
  t
(** Installs the runtime as the protocol's client and registers a
    quiescence watchdog that rescues parked cores if a wake-up message
    was lost (it also counts such rescues — a healthy run has none).

    [inject_bug] arms one deliberately broken variant
    ({!Lk_coherence.Types.injected_fault}) for the correctness
    checkers' mutation self-tests: [Swmr_violation] is forwarded to the
    protocol, [Lost_wakeup] drops the first waiter of every wake-table
    drain, [Dirty_commit] removes the killed-during-commit-window guard
    in {!xend}. Never set in real runs. *)

val sysconf : t -> Sysconf.t
val costs : t -> costs
val store : t -> Lk_htm.Store.t
val protocol : t -> Lk_coherence.Protocol.t
val ctx : t -> Lk_coherence.Types.core_id -> Lk_htm.Txstate.t
val lock_addr : t -> int

(* -- Hardware primitives -------------------------------------------- *)

val xbegin :
  t -> Lk_coherence.Types.core_id -> k:([ `Started | `Busy ] -> unit) -> unit
(** Enter speculative mode. Under best-effort HTM this subscribes to
    the fallback lock (Listing 1): if the lock is held the transaction
    self-aborts and [`Busy] is reported. Under HTMLock the subscription
    is removed and xbegin always [`Started]s. *)

val xend : t -> Lk_coherence.Types.core_id -> k:(unit -> unit) -> unit
(** Commit: clear the L1 transactional metadata, publish the write
    buffer, wake waiters. Never fails (eager conflict detection). *)

val hlbegin : t -> Lk_coherence.Types.core_id -> k:(unit -> unit) -> unit
(** Enter HTMLock (TL) mode. The caller must hold the fallback lock.
    Under switchingMode this additionally obtains the LLC authorization
    (retrying until the current STL transaction, if any, finishes). *)

val hlend : t -> Lk_coherence.Types.core_id -> k:(unit -> unit) -> unit
(** Leave HTMLock mode (TL or STL): clear metadata and overflow
    signatures, release the LLC authorization, wake waiters. *)

val ttest : t -> Lk_coherence.Types.core_id -> Lk_htm.Txstate.mode
(** The paper's extended ttest: distinguishes HTM / TL / STL (Listing
    2 dispatches the release path on it). *)

(* -- TL2-style software fallback (hybrid-TM comparators) -------------- *)

val swbegin : t -> Lk_coherence.Types.core_id -> k:(unit -> unit) -> unit
(** Start a TL2-style software transaction ([Sysconf.fallback = Tl2]
    systems): under the [Uninstrumented] scheme, RMW the software-mode
    gate up (killing every hardware transaction subscribed to it), then
    sample the global clock as the read version. Never fails — the
    software path is the guaranteed-progress endpoint. Subsequent
    {!op} calls take the software path (optimistic stamped reads,
    buffered writes) until {!sw_commit}; a read observing a locked or
    too-new stamp aborts the transaction ({!op_failed}, reason
    [Validation]) and the core must retry from [swbegin]. *)

val sw_commit :
  t ->
  Lk_coherence.Types.core_id ->
  k:([ `Committed | `Aborted ] -> unit) ->
  unit
(** TL2 commit: lock the write set's stamp slots in ascending order,
    take the write stamp from the global clock (GV1 advances it with an
    RMW; GV5 uses [clock + 1] without traffic), validate the read set
    by exact version match, then publish, stamp and unlock. Validation,
    publish and the oracle record happen in one simulated instant — the
    serialization point — with the publish write-backs charged after.
    [`Aborted] (reason [Validation]) on a lost lock race or a failed
    validation; the core retries from {!swbegin}. *)

(* -- Memory operations ------------------------------------------------ *)

val attach : t -> Lk_coherence.Types.core_id -> (int -> unit) -> unit
(** Install the core's event sink, once per core: each {!op} ends with
    [k op_done], or [k op_failed] when the surrounding transaction
    died, and {!post} delivers the core's own codes. *)

val detach : t -> Lk_coherence.Types.core_id -> unit
(** Drop the core's sink, so a finished core is not kept live. *)

val op_done : int
val op_failed : int

val post : t -> delay:int -> Lk_coherence.Types.core_id -> int -> unit
(** [post t ~delay core code] runs the core's sink on [code] (a
    non-negative code of its own, past {!op_done}) at [delay] cycles
    from now: one registered handler carries every core's events, so a
    core registers none and allocates nothing to wait. *)

val op :
  t ->
  Lk_coherence.Types.core_id ->
  Lk_coherence.Types.access ->
  addr:int ->
  value:int ->
  unit
(** [op t core what ~addr ~value] reads ([Read]), writes [value]
    ([Write]) or adds [value] ([Rmw]) at [addr] inside the current
    context, and ends with the {!attach}ed sink. An op on the
    hardware path allocates nothing: the in-order core has one access
    in flight, so its state lives in per-core fields, and each of its
    hops is an event posted to a registered handler. *)

val op_value : t -> Lk_coherence.Types.core_id -> int
(** The value the core's last completed {!op} read: the loaded value
    of a [Read], the value before the addition of an [Rmw], 0 for a
    [Write]. *)

val add_insts : t -> Lk_coherence.Types.core_id -> int -> unit
(** Account locally executed (compute) instructions — feeds the
    committed-instructions priority. *)

val fault :
  t ->
  Lk_coherence.Types.core_id ->
  k:([ `Survived of int | `Died ] -> unit) ->
  unit
(** An exception fires at the current instruction. HTM transactions
    die (best-effort semantics); HTMLock-mode and non-speculative
    execution survive, paying [costs.fault_cost]. *)

(* -- Spinlock --------------------------------------------------------- *)

val lock_acquire : t -> Lk_coherence.Types.core_id -> k:(unit -> unit) -> unit
(** Test-and-test-and-set with bounded exponential backoff, running
    through the coherence protocol. Used by the fallback path and by
    the CGL system. *)

val lock_release : t -> Lk_coherence.Types.core_id -> k:(unit -> unit) -> unit

val lock_held : t -> bool
(** Committed value of the lock (tests and spin heuristics). *)

val note_lock_commit : t -> Lk_coherence.Types.core_id -> unit
(** Record the completion of a critical section executed under the
    plain fallback path (no HTMLock — there is no hlend to count it). *)

(* -- Serializability oracle ------------------------------------------- *)

val enable_oracle : t -> Lk_htm.Oracle.t
(** Start checking serializability: every access inside a critical
    section (except to the fallback lock's line) goes to the oracle's
    pending log for its core, an abort or a new section discards it,
    and a commit replays it at once. [Lk_htm.Oracle.verify] on the
    returned handle reports the first violation. Costs O(operations)
    time and O(addresses touched) memory; until called, each access
    pays one [None] test. [Lk_sim.Runner] enables it on every run. *)

val oracle : t -> Lk_htm.Oracle.t option

val enable_ledger : ?capacity:int -> t -> Lk_engine.Ledger.t
(** Start recording the structured transaction-event ledger and wire it
    into all three emitting layers at once: this runtime (begins,
    commits, aborts, rejects, parks/wakes, HTMLock entries and exits,
    switch decisions, spills, lock acquire/release), the coherence
    protocol ([Nack]/[Abort_kill], via
    {!Lk_coherence.Protocol.set_ledger}) and the value layer
    ([Spec_publish]/[Spec_discard], via {!Lk_htm.Store.set_ledger}).
    Abort-edge events ([Tx_abort], [Sw_abort], [Nack], [Reject],
    [Abort_kill], [Spec_discard]) carry the aggressor core and the
    victim's attempt age packed into [arg] — cycles since the attempt
    began minus any deliberate stalls (reject back-off pauses, time
    parked on a wake-up list), i.e. cycles the core actually spent
    computing; see the packing helpers in {!Lk_engine.Ledger} — so a
    causal profiler can reconstruct who killed whom and how much work
    died.
    Until called the runtime performs no ledger work at all (a single
    [None] test per would-be event). [capacity] bounds the ring (default
    65536 records); older records are dropped, see
    {!Lk_engine.Ledger.dropped}. *)

val ledger : t -> Lk_engine.Ledger.t option

val plain_section_begin : t -> Lk_coherence.Types.core_id -> unit
(** The core enters a lock-protected non-transactional critical section
    (CGL, or the fallback path without HTMLock); its operations are
    logged for the oracle. Paired with {!plain_section_end}. *)

val plain_section_end : t -> Lk_coherence.Types.core_id -> unit

(* -- Statistics ------------------------------------------------------- *)

type core_stats = {
  mutable starts : int;  (** HTM attempts begun. *)
  mutable commits : int;  (** HTM commits (STL commits excluded). *)
  mutable stl_commits : int;
  mutable lock_commits : int;  (** Critical sections finished via lock/TL. *)
  mutable sw_commits : int;
      (** Critical sections committed on the TL2 software path. *)
  mutable aborts : int;
  abort_reasons : int array;  (** Indexed by {!Lk_htm.Reason.index}. *)
  mutable rejects_received : int;
  mutable parks : int;
  mutable attempts_at_commit : int;
      (** Sum over HTM commits of the attempt number each needed (1 =
          first try); divide by [commits] for the mean. *)
  mutable wasted : int;
      (** Cycles spent in attempts that aborted: every abort adds the
          distance from its attempt's begin (xbegin / swbegin). Always
          on and ledger-independent, so results are identical whether
          or not the causal profiler is attached. *)
  wasted_by_reason : int array;
      (** [wasted] split by {!Lk_htm.Reason.index}. *)
}

val core_stats : t -> Lk_coherence.Types.core_id -> core_stats
(** The core's own counts. These are the only copy: the machine-wide
    totals below are sums over cores, never kept separately. *)

val total_stats : t -> core_stats
(** A fresh record holding the field-wise sum of {!core_stats} over
    every core. *)

val stats : t -> Lk_engine.Stats.group
(** The machine-wide counters that have no per-core twin (the typed
    accessors below read them) plus the latency histograms. *)

val commit_rate : t -> float
(** Committed transactions (HTM, STL and software) / started attempts,
    over all cores (the paper's transaction commit rate). 1.0 when
    nothing started. *)

val wakeups : t -> int
(** Parked transactions woken by a rejector's commit or abort. *)

val watchdog_rescues : t -> int
(** Parked cores released by the quiescence watchdog (0 in a healthy
    run). *)

val switches_granted : t -> int
(** switchingMode requests that won the LLC authorization. *)

val switches_denied : t -> int
(** switchingMode requests refused (the transaction aborts instead). *)

val spilled_lines : t -> int
(** Lines spilled into the LLC overflow signatures. *)

val lock_dwell_cycles : t -> int
(** Cycles the fallback spinlock was held, summed over acquisitions. *)

val clock_advances : t -> int
(** Effective advances of the TL2 global version clock. *)

val parked_cores : t -> Lk_coherence.Types.core_id list

(* -- Checker introspection -------------------------------------------- *)

(** Read-only views of the runtime's private coordination state, for
    the invariant catalogue in [lockiller.check] (and tests). None of
    these mutate anything. *)

val arbiter_holder : t -> Lk_coherence.Types.core_id option
(** Current holder of the HTMLock/switching LLC authorization. *)

val sig_owner : t -> Lk_coherence.Types.core_id option
(** Core owning the LLC overflow signatures, if any. *)

val wake_waiters :
  t -> rejector:Lk_coherence.Types.core_id -> Lk_coherence.Types.core_id list
(** Cores recorded in the wake table against [rejector]
    (non-destructive). *)

val wake_pending : t -> int
(** Total recorded (rejector, waiter) pairs in the wake table. *)

val has_pending_wake : t -> Lk_coherence.Types.core_id -> bool
(** A wake-up raced ahead of the core's park and is waiting to be
    consumed. *)

val is_parked : t -> Lk_coherence.Types.core_id -> bool

val lock_holders : t -> Lk_coherence.Types.core_id list
(** Cores currently between [note_lock_acquired] and the matching
    release — i.e. holding the fallback spinlock. *)

(* -- Telemetry introspection ------------------------------------------ *)

(** Allocation-free gauges sampled by [Lk_sim.Telemetry]: the periodic
    sampler calls these thousands of times per run and must not
    disturb the GC, so none of them build options, lists or tuples. *)

val num_phases : int
(** Number of distinct {!phase_code} values (codes are [0 ..
    num_phases - 1]). *)

val phase_code : t -> Lk_coherence.Types.core_id -> int
(** The core's current execution phase as a stable integer code:
    0 non-tx, 1 HTM, 2 STL/TL (lock transaction), 3 holding the
    fallback lock, 4 parked, 5 aborting (asynchronous abort pending),
    6 software transaction (TL2 fallback path). Parked wins over
    lock-held wins over the transactional modes. *)

val phase_label : int -> string
(** Human-readable name of a {!phase_code}.
    @raise Invalid_argument outside [0 .. num_phases - 1]. *)

val phase_char : int -> char
(** One-letter glyph of a {!phase_code}, as drawn in telemetry
    timelines.
    @raise Invalid_argument outside [0 .. num_phases - 1]. *)

val holds_lock : t -> Lk_coherence.Types.core_id -> bool
(** The core holds the fallback spinlock ([lock_holders] without the
    list). *)

val arbiter_engaged : t -> bool
(** Some core holds the HTMLock/switching LLC authorization
    ([arbiter_holder <> None] without the option). *)

val sig_rd_population : t -> int
(** Set bits in the overflow read signature. *)

val sig_wr_population : t -> int
(** Set bits in the overflow write signature. *)

val tx_latency_hdr : t -> Lk_engine.Stats.hdr
(** Always-on critical-section latency histogram: cycles from the
    first [xbegin] (or [hlbegin]) of a critical section to its commit,
    across HTM, STL and fallback completions. *)

val retry_gap_hdr : t -> Lk_engine.Stats.hdr
(** Always-on abort-to-retry gap histogram: cycles between an abort
    and the next [xbegin] of the same critical section. *)

val lock_dwell_hdr : t -> Lk_engine.Stats.hdr
(** Always-on fallback-lock dwell histogram: cycles each acquisition
    held the lock (the histogram behind the [lock_dwell_cycles]
    counter). *)

val clock_value : t -> int
(** Current global version clock (committed word on
    {!Lk_htm.Global_clock.line}) — the telemetry gauge behind the
    hybrid comparators' clock track. 0 for non-hybrid systems. *)

val sw_population : t -> int
(** Cores currently inside a TL2 software transaction. *)

val sw_path : t -> Lk_htm.Sw_path.t
(** The software path's bookkeeping (read/write sets, lock table) —
    checker and fingerprint introspection. *)
