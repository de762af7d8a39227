(** Structured transaction-event ledger.

    A fixed-capacity ring buffer of int-encoded event records that the
    simulator's layers (coherence protocol, HTM value layer, runtime)
    feed while a run executes. Recording is allocation-free and O(1):
    each record is four machine words (cycle, core, event code,
    argument) written into a preallocated flat array, so the ledger can
    stay attached to full-size runs without perturbing the measured
    execution. When the ring wraps, the oldest records are overwritten
    and counted in {!dropped}.

    The ledger is the machine-readable companion to the end-of-run
    aggregates in {!Stats}: the aggregates say {e how many} aborts of
    each class a run suffered, the ledger says {e when}, {e on which
    core} and {e in what interleaving} — the signal needed to diagnose
    fallback-path dynamics (who killed whom, how long the fallback lock
    was held, where NACK convoys formed). [Lk_sim.Tracing] aggregates
    it into abort-cause breakdown tables and exports it as a
    Chrome/Perfetto [trace.json].

    Event streams are deterministic: two runs of the same configuration
    — under any [--jobs] value — produce byte-identical {!dump} output,
    which makes the ledger a differential-testing axis in its own
    right. *)

(** What happened. The [arg] recorded with each kind is:

    - [Tx_begin]: the attempt number for this critical section (0 on
      the first try).
    - [Tx_commit]: attempts the commit needed (= final attempt + 1).
    - [Tx_abort]: {!pack_abort} of the abort-reason code
      ([Lk_htm.Reason.index]), the aggressor core (-1 when
      environmental: capacity, fault) and the victim's attempt age
      (stall-excluded cycles of work in this attempt).
    - [Nack]: coherence layer sent a reject to [core]; {!pack_attr} of
      the holder that won the arbitration (or [-1] when the LLC
      overflow signatures rejected) and the requester's attempt
      age.
    - [Reject]: the runtime observed the reject reply at [core]; same
      argument convention as [Nack].
    - [Abort_kill]: coherence-level conflict abort (the paper's
      friendly fire): [core] is the victim, [arg] {!pack_attr} of the
      aggressor and the victim's attempt age.
    - [Park] / [Wake]: 0.
    - [Lock_acquire] / [Lock_release]: 0 (the fallback spinlock).
    - [Hl_begin]: 0. [Hl_end]: 1 if the section ran in STL mode,
      0 for TL.
    - [Switch_granted] / [Switch_denied]: 0.
    - [Spill]: the line spilled into the LLC overflow signatures.
    - [Spec_publish]: buffered speculative writes applied to committed
      memory. [Spec_discard]: {!pack_discard} of the writes dropped
      and the victim's attempt age.
    - [Sw_begin]: a TL2-style software transaction started; [arg] is
      its read version (the global-clock sample).
    - [Sw_commit]: it committed; [arg] is the version its write set was
      stamped with (0 for a read-only commit, which stamps nothing).
    - [Sw_abort]: it aborted; [arg] is the abort-reason code, like
      [Tx_abort].
    - [Clock_advance]: the global version clock moved; [arg] is the new
      value. *)
type kind =
  | Tx_begin
  | Tx_commit
  | Tx_abort
  | Nack
  | Reject
  | Abort_kill
  | Park
  | Wake
  | Lock_acquire
  | Lock_release
  | Hl_begin
  | Hl_end
  | Switch_granted
  | Switch_denied
  | Spill
  | Spec_publish
  | Spec_discard
  | Sw_begin
  | Sw_commit
  | Sw_abort
  | Clock_advance

val kinds : kind list
(** Every kind, in code order. *)

val kind_code : kind -> int
(** Stable integer code of a kind (position in {!kinds}). *)

val kind_of_code : int -> kind option

val kind_label : kind -> string
(** Short stable label ("xbegin", "nack", "kill", ...) used by the
    text dump and the Perfetto exporter. *)

(** {2 Argument packing}

    Conflict and abort records pack the responsible core and the
    victim's attempt age into the single int argument. "Age" is the
    victim's stall-excluded work clock: cycles since its current
    attempt began, minus any deliberate waits (reject back-off,
    parked time) — the cycles it actually spent computing. All
    codecs below are pure int arithmetic (allocation-free on the emit
    path); [who] is a core id in [[-1, 1022]] where [-1] means "no
    core" (environmental cause, overflow signatures), and [age] is a
    non-negative cycle count (negative values are clamped to 0). *)

val pack_attr : who:int -> age:int -> int
(** For [Nack] / [Reject] / [Abort_kill]. *)

val attr_who : int -> int
val attr_age : int -> int

val pack_abort : reason:int -> who:int -> age:int -> int
(** For [Tx_abort] / [Sw_abort]: the low bits keep the
    [Lk_htm.Reason.index] code so reason decoding stays where it was. *)

val abort_reason : int -> int
val abort_who : int -> int
val abort_age : int -> int

val pack_discard : writes:int -> age:int -> int
(** For [Spec_discard]: discarded-write count (saturating at 65535)
    plus the victim's attempt age. *)

val discard_writes : int -> int
val discard_age : int -> int

type t

val create : ?capacity:int -> Sim.t -> t
(** [create ?capacity sim] makes an empty ledger that reads record
    timestamps from [sim]'s clock. Default capacity: 65536 records
    (2 MiB); [capacity] must be positive. *)

val emit : t -> core:int -> kind -> arg:int -> unit
(** Record one event at the current simulated cycle. Allocation-free;
    overwrites the oldest record when the ring is full. When a sink or
    tap is installed it is called with the same record after it is
    stored (sink first). *)

val set_sink :
  t -> (time:int -> core:int -> kind:kind -> arg:int -> unit) option -> unit
(** Install (or clear) a live tap called from {!emit} after each record
    is stored. This is the invariant sanitizer's event-level observation
    point ([lockiller.check]): emission sites mark semantically
    meaningful protocol transitions (commits, parks, lock hand-offs), so
    a sink checks exactly where violations can first appear. [None]
    (the default) costs one branch per emit. *)

val set_tap :
  t -> (time:int -> core:int -> kind:kind -> arg:int -> unit) option -> unit
(** A second, independent live tap with the same contract as
    {!set_sink} (called after it). The causal profiler's streaming
    fold uses this slot, so profiling can run alongside the invariant
    sanitizer: records reach the tap even when ring wraparound later
    overwrites them. *)

val capacity : t -> int

val recorded : t -> int
(** Total events emitted, including overwritten ones. *)

val length : t -> int
(** Records currently retained ([min recorded capacity]). *)

val dropped : t -> int
(** Records lost to wraparound ([recorded - length]). *)

val clear : t -> unit

val iter :
  t -> (time:int -> core:int -> kind:kind -> arg:int -> unit) -> unit
(** Visit every retained record, oldest first, without allocating
    per-record structures. *)

type entry = { time : int; core : int; kind : kind; arg : int }

val entries : t -> entry list
(** The retained records, oldest first (convenience; allocates). *)

val dump : Format.formatter -> t -> unit
(** One line per retained record — ["<time> <core> <label> <arg>"] —
    oldest first, preceded by a drop notice when the ring wrapped. The
    output is deterministic and byte-stable, so differential tests
    compare it directly. *)
