(** Synthetic STAMP workload generation.

    The paper evaluates on the unmodified STAMP suite. Running the real
    C benchmarks is impossible here (no ISA-level simulation), so each
    application is replaced by a generator that reproduces its
    *transactional profile*: transaction length, read/write-set size,
    contention structure (hot shared records vs. private data),
    exception-proneness and the fraction of time spent inside
    transactions. These are the only properties the paper's metrics
    (commit rate, abort mix, execution-time breakdown, speedups)
    depend on. Profiles follow the published STAMP characterisation
    (Cao Minh et al., IISWC 2008) and the behaviour the LockillerTM
    paper itself reports per application (e.g. labyrinth/yada living on
    the fallback path).

    Address space layout (byte addresses, line-aligned records):
    the fallback lock lives at address 0; a hot region of contended
    records follows; then a large shared low-contention region; then
    per-thread private regions. Hot updates are [Incr] operations so
    integration tests can verify conservation under every system. *)

type profile = {
  name : string;
  txs_per_thread : int;  (** At scale 1.0. *)
  reads_per_tx : int * int;  (** Inclusive uniform range. *)
  writes_per_tx : int * int;
  hot_lines : int;  (** Contended shared records. *)
  hot_fraction : float;  (** Probability an access targets the hot set. *)
  zipf_skew : float;  (** Skew inside the hot set (0 = uniform). *)
  shared_lines : int;  (** Low-contention shared region. *)
  private_lines : int;  (** Per-thread data. *)
  compute_per_op : int;  (** Local work between memory operations. *)
  pre_compute : int * int;  (** Non-transactional work before a tx. *)
  post_compute : int * int;
  fault_prob : float;  (** Per-transaction exception probability. *)
  barrier_every : int option;
      (** Phase-structured applications (kmeans iterations, genome
          stages): all threads synchronise on a barrier after this many
          transactions. *)
}

val lock_addr : int
(** The fallback/CGL lock's byte address (0). *)

val validate : profile -> (unit, string) result

val cursors :
  profile ->
  threads:int ->
  seed:int ->
  scale:float ->
  Lk_cpu.Program.cursor array
(** One cursor per thread, each drawing that thread's transactions on
    demand, so memory is O(threads) however long the run. Deterministic:
    same (profile, threads, seed, scale) gives the same transactions.
    [scale] multiplies [txs_per_thread] (min 1), which is every
    cursor's [length]. Threads must be positive. *)

val generate :
  profile -> threads:int -> seed:int -> scale:float -> Lk_cpu.Program.t
(** {!cursors}, drained into lists. *)

val thread_rngs :
  profile -> threads:int -> seed:int -> Lk_engine.Rng.t array
(** The per-thread streams {!cursors} draw from: split in thread order
    from one root seeded by [seed] and the profile's name. Open-loop
    replay synthesises each slot's bodies from the same streams. *)

val synthesize :
  profile ->
  Lk_engine.Rng.t ->
  threads:int ->
  thread:int ->
  reads:int ->
  writes:int ->
  Lk_cpu.Program.transaction
(** One transaction body with an externally dictated footprint — the
    access pattern (hot/shared/private mix, compute interleave, fault
    injection, pre/post compute) follows [profile], but the read and
    write counts come from the caller (a trace record) instead of the
    profile's per-tx ranges. Used by open-loop replay to synthesise
    bodies lazily at service time. *)

val hot_addresses : profile -> int list
(** Byte addresses of the hot records — their committed values after a
    run must equal the number of committed [Incr]s (conservation
    checks). *)

type tally
(** Per-address count of the [Incr]s in the bodies drawn so far. *)

val tally : profile -> tally
(** An empty tally holding every hot record at 0. *)

val count : tally -> Lk_cpu.Program.transaction -> Lk_cpu.Program.transaction
(** Add a body's [Incr]s to the tally; returns the body, so a draw can
    be counted in passing. *)

val expected : tally -> (int * int) list
(** [(addr, increments)] pairs sorted by address: what the committed
    store must show after any correct run of the counted bodies. *)

val pp : Format.formatter -> profile -> unit
