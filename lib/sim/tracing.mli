(** Post-run analysis of the structured transaction-event ledger.

    {!Lk_engine.Ledger} records what happened; this module turns those
    flat integer records back into domain terms: an abort-cause
    breakdown, rendered from a {!Profile} fold of the records, and a
    Chrome/Perfetto trace export for interactive timeline inspection.

    Both decode the ledger the same way: [Tx_abort] args are
    {!Lk_htm.Reason.index} values, [Nack]/[Reject] args are the winning
    holder's core (or [-1] for an LLC overflow-signature reject),
    [Abort_kill] records carry the victim as [core] and the aggressor
    as [arg]. See {!Lk_engine.Ledger} for the full argument
    conventions. *)

val breakdown_table : ?title:string -> Profile.t -> Report.table
(** The abort-cause breakdown of a profile: one row per abort cause
    (label, count, share of all aborts) plus a totals row;
    conflict-resolution traffic (NACKs, kills, rejects, parks/wakes)
    and, when it ran, the software path go in the notes. Fed from the
    ledger's streaming tap ({!Profile.attach}) the counts are exact
    however small the ring; folded from a retained ledger
    ({!Profile.of_ledger}) they cover its records, and a note warns
    when the ring dropped some. Render with {!Report.pp_table},
    {!Report.to_csv} or {!Report.json_of_table}. *)

val json_of_breakdown : Profile.t -> Json.t
(** The same counts, label-keyed
    ([{"aborts": ..., "by_reason": {"mc": ...}, ..., "dropped": ...}]). *)

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
