(** Causal abort profiler: folds the structured event ledger into a
    who-killed-whom graph with wasted-work accounting.

    A profile consumes {!Lk_engine.Ledger} records — either streamed
    live through the ledger's tap slot ({!attach}), so fixed-capacity
    ring wraparound cannot lose edges, or by folding a retained ledger
    after the run ({!of_ledger}) — and accumulates, in fixed
    preallocated arrays:

    - the {e kill matrix}: attributed abort edges
      (aggressor, victim, count), with aggressor [-1] for environmental
      aborts (capacity, faults, mutex subscriptions) that have no
      single core to blame. Every [Tx_abort] / [Sw_abort] record
      contributes exactly one edge, so the matrix total equals the
      run's abort count;
    - per-core and per-reason {e wasted cycles}, decoded from the age
      packed into each abort record (self-contained: totals survive
      ring wraparound as long as the record itself does, and are exact
      under the streaming tap);
    - {e kill-chain depth}: on edge [(a, v)] the victim's depth becomes
      the aggressor's + 1 (1 for environmental edges), resetting to 0
      when a core commits — so A kills B kills C yields depth 2;
    - {e fallback-lock convoy detection}: acquisition count, hand-offs
      (holder differs from the previous holder), the longest
      consecutive same-holder run, and dwell (total / max) from the
      acquire/release stream;
    - a {e commit critical-path estimate}: the non-overlapped portion
      of committed attempts, [sum over commits of
      max 0 (commit - max begin prev_commit)] — a lower bound on the
      serialized work the run cannot parallelise away.

    Folding a record is allocation-free (the tap runs on the simulator's emit
    path); the renderers allocate freely and run after the run. The
    profiler is purely observational: attaching it changes no
    simulation result. *)

type t

val create : cores:int -> t

val attach : t -> Lk_engine.Ledger.t -> unit
(** Install the profile's record fold as the ledger's tap ({!Lk_engine.Ledger.set_tap}):
    every subsequent emission streams through the profile, immune to
    ring wraparound. *)

val of_ledger : cores:int -> Lk_engine.Ledger.t -> t
(** Fold a ledger's retained records (oldest first). Sets {!dropped}
    from the ledger, so renderers can warn that totals cover only the
    retained suffix. *)

val dropped : t -> int
(** Records lost before the fold ({!of_ledger} only; 0 when
    streaming). *)

(** {1 Graph totals} *)

val total_aborts : t -> int
(** Abort edges folded ([Tx_abort] + [Sw_abort] records). *)

val attributed : t -> int
(** Edges naming an aggressor core. [attributed + environmental =
    total_aborts]. *)

val environmental : t -> int

val killed_by : t -> victim:int -> int
(** Incoming edges (aborts suffered) of a core. *)

val top_pairs : t -> k:int -> (int * int * int) list
(** The [k] heaviest (aggressor, victim, count) edges, count
    descending, ties broken by (aggressor, victim) ascending —
    deterministic. Excludes zero-count pairs. *)

(** {1 Wasted work} *)

val wasted : t -> int
(** Total cycles inside attempts that aborted, from the packed ages. *)

val wasted_of : t -> core:int -> int
val wasted_by_reason : t -> Lk_htm.Reason.t -> int

val discarded_writes : t -> int
(** Speculative writes dropped by aborts ([Spec_discard] records). *)

(** {1 Structure} *)

val max_chain_depth : t -> int
val commits : t -> int
(** Commit events folded ([Tx_commit] + [Hl_end] + [Sw_commit]). *)

val serial_commit_cycles : t -> int
(** The commit critical-path estimate (see the module preamble). *)

val nacks : t -> int
val rejects : t -> int
val protocol_kills : t -> int
(** [Abort_kill] records (the coherence protocol's view of conflict
    kills; each is also counted as a [Tx_abort] edge). *)

(** {1 Event counts}

    What the abort breakdown ({!Tracing.breakdown_table}) reports next
    to the per-reason table. *)

val abort_mix : t -> (Lk_htm.Reason.t * int) list
(** Aborts per reason, paper order — the shape of
    [Runner.result.abort_mix], and equal to it when streaming.
    Software aborts fold in too (their [Validation] / conflict reasons
    share the table). *)

val parks : t -> int
val wakes : t -> int

val sw_commits : t -> int
(** [Sw_commit] records (hybrid-TM software path). *)

val sw_aborts : t -> int
(** [Sw_abort] records (also counted in {!total_aborts}). *)

val clock_advances : t -> int
(** Global version-clock advances. *)

(** {1 Convoy detection} *)

val lock_acquisitions : t -> int
val lock_handoffs : t -> int
(** Acquisitions whose holder differs from the previous holder. A high
    hand-off fraction with short dwell is the convoy signature. *)

(** {1 Renderers} *)

val to_text : t -> string
(** Human-readable report: totals, wasted-by-reason table, top-10
    aggressor/victim pairs, per-core table, convoy and critical-path
    summary. Warns when {!dropped} > 0. *)

val to_csv : t -> string
(** The kill matrix as [aggressor,victim,count,wasted_of_victim] rows
    (attributed and environmental), deterministic order. *)

val to_json : t -> string
(** Everything above as one JSON document (totals, per-core arrays,
    kill edges, convoy block, critical path). Deterministic. *)
