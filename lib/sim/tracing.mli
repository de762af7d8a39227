(** Post-run analysis of the structured transaction-event ledger.

    {!Lk_engine.Ledger} records what happened; this module turns those
    flat integer records back into domain terms: an abort-cause
    breakdown that cross-checks the {!Runner.result} counters, and a
    Chrome/Perfetto trace export for interactive timeline inspection.

    Both consumers decode the ledger the same way: [Tx_abort] args are
    {!Lk_htm.Reason.index} values, [Nack]/[Reject] args are the winning
    holder's core (or [-1] for an LLC overflow-signature reject),
    [Abort_kill] records carry the victim as [core] and the aggressor
    as [arg]. See {!Lk_engine.Ledger} for the full argument
    conventions. *)

(** Aggregated event counts over one ledger. When [dropped > 0] the
    ring overflowed and every count is a lower bound — rerun with a
    larger [capacity] for exact numbers. *)
type breakdown = {
  aborts : int;  (** Total [Tx_abort] plus [Sw_abort] records. *)
  by_reason : (Lk_htm.Reason.t * int) list;
      (** Aborts per cause, paper order — same shape as
          [Runner.result.abort_mix], and equal to it whenever the
          ledger did not drop records. Software aborts fold in here
          too (their [Validation] / conflict reason indices share the
          table). *)
  nacks : int;  (** Coherence-level reject replies observed. *)
  kills : int;  (** Holders aborted on behalf of a requester. *)
  rejects : int;  (** Runtime-level rejects (transactions parked or
                      backed off after a NACK resolution). *)
  parks : int;
  wakes : int;
  sw_commits : int;  (** [Sw_commit] records (hybrid-TM software path). *)
  sw_aborts : int;  (** [Sw_abort] records (also counted in [aborts]). *)
  clock_advances : int;  (** Global version-clock advances observed. *)
  dropped : int;  (** Records lost to ring overflow. *)
}

val abort_breakdown : Lk_engine.Ledger.t -> breakdown

val breakdown_table : ?title:string -> breakdown -> Report.table
(** One row per abort cause (label, count, share of all aborts) plus a
    totals row; conflict-resolution traffic (NACKs, kills, rejects,
    parks/wakes) goes in the notes. Render with {!Report.pp_table},
    {!Report.to_csv} or {!Report.json_of_table}. *)

val json_of_breakdown : breakdown -> Json.t
(** Label-keyed counts ([{"aborts": ..., "by_reason": {"mc": ...}}]). *)

(** {1 Perfetto export}

    The Chrome trace-event JSON format ([{"traceEvents": [...]}]),
    loadable in {{:https://ui.perfetto.dev}Perfetto} or
    [chrome://tracing]. Each simulated core becomes one track
    ([tid] = core id, thread names ["core N"]); timestamps are
    simulated cycles reported as microseconds.

    Span reconstruction pairs begin/end records per core:
    - [Tx_begin]..[Tx_commit] becomes a ["tx"] slice (args: attempt
      number and attempts-to-commit);
    - [Tx_begin]..[Tx_abort] becomes an ["abort:<reason>"] slice
      tagged with the {!Lk_htm.Reason.label}, the aggressor core
      ([by], -1 environmental) and the victim's stall-excluded
      attempt age ([age]);
    - [Hl_begin]..[Hl_end] becomes ["TL"] or ["STL"];
    - [Lock_acquire]..[Lock_release] becomes ["lock"];
    - [Sw_begin]..[Sw_commit] becomes an ["sw"] slice (args: the read
      version [rv] and write stamp [wt]), [Sw_begin]..[Sw_abort] an
      ["sw-abort:<reason>"] slice; [Clock_advance] is an instant
      carrying the new clock value.

    Everything else (NACKs, kills, rejects, parks/wakes, switch
    decisions, spills, speculative publishes/discards) is emitted as an
    instant event on the core's track. Spans still open when the ledger
    ends are closed at the last recorded timestamp with an ["(open)"]
    suffix.

    Every abort attributed to an aggressor core additionally emits a
    {e flow-event} pair (ph ["s"] on the aggressor's track, ph ["f"]
    with [bp:"e"] on the victim's, one fresh id per edge): Perfetto
    draws the kill as an arrow from the aggressor's slice to the
    victim's abort, the timeline rendering of the causal profiler's
    who-killed-whom graph.

    With [?telemetry] the sampled gauges are appended as counter
    tracks (ph ["C"]) alongside the slices: per-core phase, signature
    fill, queue depth, lock-holder/parked occupancy and link
    utilization — see {!Telemetry.perfetto_counters}. *)

val perfetto_json : ?telemetry:Telemetry.t -> Lk_engine.Ledger.t -> Json.t

val write_perfetto :
  ?telemetry:Telemetry.t -> file:string -> Lk_engine.Ledger.t -> unit
(** {!perfetto_json} pretty-printed to [file]. *)

(** {1 Human-readable lifecycle lines}

    What [lockiller_sim trace] prints: one line per record, with the
    packed argument decoded the way the breakdown and the Perfetto
    export decode it. *)

val event_label : Lk_engine.Ledger.kind -> int -> string
(** [event_label kind arg] is {!Lk_engine.Ledger.kind_label} plus the
    decoded argument: ["xbegin retry 2"], ["abort:mutex"],
    ["abort:mc by 3"], ["reject by 2"] (["by llc"] when the overflow
    signatures rejected), ["hlend stl"], ["spill 4242"]. Plain events
    (["commit"], ["park"], ["lock-acquire"] ...) keep the bare label. *)

val pp_tail : last:int -> Format.formatter -> Lk_engine.Ledger.t -> unit
(** The trailing [last] retained records, oldest first, one
    ["<cycle>  core <n>  <event_label>"] line each. *)
