(** MESI directory protocol engine with HTM conflict hooks.

    One instance owns all private L1s, the banked inclusive LLC with
    its directory, and the mesh network. Requests are serialised per
    line at the home bank (atomic-directory model, see DESIGN.md):
    when a request reaches the head of its line's queue the full
    protocol action is decided against current state, latencies of the
    constituent messages (Table I) are charged on the simulated clock,
    and the requester's reply fires at the computed completion time.

    Transactional policy is delegated to a {!Client.t}: the protocol
    detects conflicts from L1 tx bits and asks the client to arbitrate
    (requester-win, recovery/NACK, HTMLock, ...). *)

type t

type config = {
  cores : int;
  l1_size : int;  (** bytes, per core *)
  l1_ways : int;
  l1_hit_latency : int;
  llc_size : int;  (** bytes, total across banks *)
  llc_ways : int;
  llc_hit_latency : int;
  mem_latency : int;
  exclusive_state : bool;
      (** MESI vs MSI: with [false] a sole reader is granted S rather
          than E, so first writes always pay a directory upgrade (no
          silent E->M). Ablation knob; the paper's protocol is MESI. *)
  dir_pointers : int option;
      (** Full-map directory ([None]) or a limited-pointer one: when a
          line has more sharers than pointers, invalidations broadcast
          to every core (cost model only — correctness is unchanged
          because the simulator always knows the true sharers). *)
  dir_shards : int;
      (** Directory shards = LLC banks = per-shard request FIFOs. [0]
          (the default) means one shard per tile — the historical
          machine, bit for bit. A smaller count models a hierarchical
          directory where several tiles share an LLC slice; must not
          exceed [cores]. *)
  dir_hash : Shard.hash;
      (** Address→shard hash; {!Shard.Mod} is the historical
          interleaving. *)
}

val default_config : config
(** Table I values: 32 cores, 32KB 4-way L1 (2 cycles), 8MB 16-way
    shared LLC (12 cycles), 100-cycle memory. *)

val create :
  sim:Lk_engine.Sim.t -> network:Lk_mesh.Network.t -> config -> t
(** The network's topology must have exactly [config.cores] tiles. *)

val set_client : t -> Client.t -> unit
(** Install the transactional policy. Defaults to {!Client.plain}. *)

val set_reply : t -> (Types.core_id -> Types.outcome -> unit) -> unit
(** Install where {!access} outcomes go: [reply core outcome] runs when
    the core's access completes or its reject reply arrives. A core has
    at most one access in flight. Defaults to ignoring them. *)

val set_ledger : t -> Lk_engine.Ledger.t -> unit
(** Feed coherence-level transactional events into an event ledger:
    [Nack] whenever the home replies with a reject ([arg] = winning
    holder core, or [-1] when the LLC overflow signatures rejected) and
    [Abort_kill] whenever a conflicting holder is aborted on behalf of
    a requester ([core] = victim, [arg] = aggressor). Off (and free)
    until called; normally wired by
    [Lk_lockiller.Runtime.enable_ledger]. *)

val set_inject_bug : t -> Types.injected_fault option -> unit
(** Arm (or disarm) a deliberately broken protocol variant for the
    checker mutation self-tests. The only fault this layer implements
    is {!Types.Swmr_violation} — the owner downgrade on a read forward
    is skipped; the other faults live in the runtime and are ignored
    here. Never set in real runs. *)

val sim : t -> Lk_engine.Sim.t
val network : t -> Lk_mesh.Network.t
val config : t -> config

val access :
  t ->
  core:Types.core_id ->
  line:Types.line ->
  what:Types.access ->
  epoch:int ->
  unit
(** Issue a memory access at the current cycle. [epoch] is the
    requester's abort epoch at issue; if the client reports the context
    stale at decision time the request is dropped (the reply still
    goes out, {!Types.granted}, and the core discards it by epoch).
    The outcome goes to the {!set_reply} function. The access
    allocates nothing: the request waits in a flat store, and each of
    its hops is an event posted to a handler registered by {!create}. *)

val commit_flush : t -> Types.core_id -> int
(** Clear every transactional bit in the core's L1, keeping all lines
    valid (commit semantics). Returns the number of lines that carried
    tx metadata. *)

val abort_flush : t -> Types.core_id -> int
(** Clear transactional metadata on abort: speculatively written lines
    are invalidated (their data never reached the LLC) and the
    directory is updated accordingly; read lines stay resident.
    Returns the number of lines that carried tx metadata. *)

val flush_core : t -> Types.core_id -> int
(** Drop every line of the core's L1 (dirty lines are written back,
    the directory is updated) — models cache pollution by an OS-level
    event such as a fault handler or context switch. Transactional
    metadata must already be clear. Returns the number of lines
    flushed. *)

val l1 : t -> Types.core_id -> L1_cache.t
(** The core's private L1 (inspection: tests, reports). *)

val llc : t -> Llc.t

val stats : t -> Lk_engine.Stats.group

val check_invariants : t -> unit
(** Assert SWMR, directory exactness, LLC inclusivity and shard
    consistency (bank placement matches the shard hash, busy FIFOs are
    filed under their line's shard, shard homes are valid tiles) over
    the whole machine. Raises [Failure] with a description on
    violation. O(resident LLC lines + L1 slots): the directory side
    checks the copies each entry names, the cache side checks that
    each L1 copy is resident and named. *)

val home_of : t -> Types.line -> Types.core_id
(** Home tile of a line under this configuration: the tile hosting the
    line's directory shard. *)

val plan : t -> Shard.t
(** The directory sharding plan in force. *)
