(** LockillerTM — public facade.

    A reproduction of "LockillerTM: Enhancing Performance Lower Bounds
    in Best-Effort Hardware Transactional Memory" (Wan, Chao, Li, Han;
    IPPS 2024) as a discrete-event simulator of a tiled CMP with MESI
    directory coherence, best-effort HTM, and the paper's three
    mechanisms (recovery, HTMLock, switchingMode).

    This module is the stable entry point: name a system from Table II
    and a STAMP workload, pick a thread count, get the paper's metrics
    back. The subsystem libraries are re-exported for programmatic use
    (building custom machines, workloads or systems). *)

(** {1 Subsystems} *)

module Engine = Lk_engine
(** Discrete-event kernel: simulation clock, event queue, RNG, stats. *)

module Mesh = Lk_mesh
(** 2-D mesh NoC: topology, X-Y routing, latency model. *)

module Coherence = Lk_coherence
(** MESI directory protocol with transactional conflict hooks. *)

module Htm = Lk_htm
(** Best-effort HTM building blocks: abort reasons, value layer,
    policies, per-core transaction state. *)

module Mechanisms = Lk_lockiller
(** The paper's contribution: recovery (NACK/reject + wake-up),
    priorities, HTMLock (TL + overflow signatures), switchingMode
    (STL + LLC arbitration), and the runtime tying them together. *)

module Cpu = Lk_cpu
(** In-order core model, thread programs, execution-time accounting. *)

module Stamp = Lk_stamp
(** Synthetic STAMP workload generators. *)

module Trace = Lk_trace
(** Trace format for open-loop replay: records, streaming
    reader/writer, and the synthetic traffic generator
    (see docs/REPLAY.md). *)

module Sim = Lk_sim
(** Machine configs (Table I), runner, metrics, experiments. *)

module Check = Lk_check
(** Correctness checkers: invariant sanitizer, bounded interleaving
    explorer, schedule fuzzer (see docs/CHECKING.md). *)

(** {1 One-call API} *)

val systems : string list
(** The Table II system names ({!run} also accepts the ablation
    systems and the {!hybrid_systems}). *)

val hybrid_systems : string list
(** The hybrid-TM comparator family (also accepted by {!run}): the
    pure-software TL2 baseline and the HyTM instrumentation variants —
    see docs/HYBRID.md. *)

val workloads : string list
(** The paper's workload names, STAMP without bayes ({!run} also
    accepts bayes and the microbenchmarks). *)

val lookup :
  system:string ->
  workload:string ->
  (Lk_lockiller.Sysconf.t * Lk_stamp.Workload.profile, string) result
(** Resolve a system and a workload name (system first). The error for
    an unknown name lists every name accepted there, beyond {!systems}
    and {!workloads}: the ablation systems, the hybrid comparators,
    bayes and the microbenchmarks. *)

val options :
  ?seed:int ->
  ?scale:float ->
  ?cache:Lk_sim.Config.cache_profile ->
  ?cores:int ->
  unit ->
  Lk_sim.Runner.options
(** {!Lk_sim.Runner.default_options} on a machine of [cores] tiles
    (default 32) with the [cache] profile, at [seed] and [scale]. *)

val guard : (unit -> 'a) -> ('a, string) result
(** [guard f] is [Ok (f ())], or [Error msg] when [f] raises [Failure
    msg] or [Invalid_argument msg] — how a run reports an invalid
    parameter or a failed check. *)

val run :
  ?seed:int ->
  ?scale:float ->
  ?cache:Lk_sim.Config.cache_profile ->
  ?cores:int ->
  system:string ->
  workload:string ->
  threads:int ->
  unit ->
  (Lk_sim.Runner.result, string) result
(** Simulate one (system, workload, threads) combination on the
    paper's machine and return every reported metric. [Error] explains
    unknown names or invalid parameters. *)

val run_text :
  ?cache:Lk_sim.Config.cache_profile ->
  ?cores:int ->
  system:string ->
  program:string ->
  unit ->
  (Lk_sim.Runner.result, string) result
(** Run a hand-written workload given in {!Lk_cpu.Program.of_text}'s
    text format (one thread per [thread] section). The serializability
    oracle and protocol invariants still verify the run. *)

val version : string
