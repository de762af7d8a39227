(** One entry per table and figure of the paper's evaluation (plus the
    headline-claims check and a mechanism ablation). Each experiment
    renders plain-text tables whose rows correspond to the bars/series
    of the original artefact.

    An experiment is written once, as its renderer. Its simulation grid
    ([plan]) is derived from one pass of that renderer in which
    {!run_job} records each job instead of running it and hands back a
    placeholder result. {!execute} then runs the plan through a {!Pool}
    of domains and an optional on-disk {!Cache}, and renders from the
    results. Results are also memoised inside a {!context}, so
    experiments sharing runs (e.g. every speedup needs the CGL
    reference) pay for each simulation once per process even without a
    cache.

    The one rule for renderers: which jobs a renderer asks for must not
    depend on result values, because during the recording pass those
    values are placeholders. The test suite checks, for every
    experiment, that rendering after the plan's prefetch simulates
    nothing further. *)

type context

val make_context :
  ?seed:int ->
  ?scale:float ->
  ?cores:int ->
  ?threads:int list ->
  ?jobs:int ->
  ?cache:Cache.t ->
  unit ->
  context
(** Defaults: seed 1, scale 1.0, the paper's 32-core machine, thread
    counts 2/4/8/16/32, one job (sequential), no on-disk cache. Tests
    use smaller machines and fewer thread counts. [jobs] > 1 runs
    planned jobs on that many domains ({!Pool.map}); results are
    collected deterministically, so the rendered output is identical
    for any job count. *)

val thread_counts : context -> int list

val simulations : context -> int
(** Simulations actually executed through this context (cache hits and
    memo hits excluded) — the cold-vs-warm observability counter. *)

(** {1 Jobs}

    A job is one (seed, scale, machine, placement, system, workload,
    threads) simulation request, as listed by an experiment's [plan]. *)

type job

val job_key : context -> job -> string
(** The job's content digest (also its {!Cache} key). *)

val run_job : context -> job -> Runner.result
(** Memo, then cache, then simulate (and write through). While [plan]
    records, it only notes the job and returns a placeholder. *)

val result :
  context ->
  ?cache:Config.cache_profile ->
  sysconf:Lk_lockiller.Sysconf.t ->
  workload:Lk_stamp.Workload.profile ->
  threads:int ->
  unit ->
  Runner.result
(** Memoised {!Runner.run} on the context's machine with the given cache
    profile, through {!run_job}. *)

val speedup_vs_cgl :
  context ->
  ?cache:Config.cache_profile ->
  sysconf:Lk_lockiller.Sysconf.t ->
  workload:Lk_stamp.Workload.profile ->
  threads:int ->
  unit ->
  float

(** An experiment: identifier (the bench target name), the paper
    artefact it reproduces, the renderer, and the simulation grid the
    renderer needs ([plan]: each distinct job once, in the order the
    renderer first asks for it). [plan] is recorded from [render], so
    for a renderer that follows the rule above the two agree, and a
    warm-cache run performs zero simulations. Recording runs nothing
    and touches neither the memo nor the cache. *)
type experiment = private {
  id : string;
  artefact : string;
  describe : string;
  plan : context -> job list;
  render : context -> Report.table list;
}

val execute : context -> experiment -> Report.table list
(** Run the experiment's plan (every job not already in the memo or the
    cache, through {!Pool.map} when the context has [jobs] > 1,
    committing results in plan order), then render. *)

val fig1 : experiment
val fig7 : experiment
val fig10 : experiment
val headline : experiment

val all : experiment list
(** Paper order; [find] looks one up by id. *)

val find : string -> experiment option
