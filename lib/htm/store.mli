(** The value layer: committed memory plus per-core speculative write
    buffers.

    Conflict detection happens entirely in the coherence metadata (like
    the hardware); this module only tracks *values* so that programs
    have real semantics and tests can verify atomicity. Eager HTM
    buffers speculative data in the L1; here the equivalent is a
    per-core buffer applied to committed memory atomically at commit
    (or flushed when a transaction becomes irrevocable by switching to
    STL mode) and discarded on abort. Irrevocable transactions (TL/STL,
    plain lock-based critical sections) write through. *)

type addr = int

type t

val create : cores:int -> t

val set_ledger : t -> Lk_engine.Ledger.t -> unit
(** Feed the value layer's lifecycle into an event ledger: every
    {!commit} emits [Spec_publish] carrying the number of buffered
    speculative writes applied, and every {!discard} emits
    [Spec_discard] with [Lk_engine.Ledger.pack_discard] of the writes
    dropped and the victim's attempt age (see {!set_age_of}).
    Normally wired by [Lk_lockiller.Runtime.enable_ledger], which
    attaches one ledger to all three emitting layers at once. *)

val set_age_of : t -> (Lk_coherence.Types.core_id -> int) -> unit
(** Install the attempt-age probe used by the [Spec_discard] packing:
    cycles of actual work since the core's current transactional
    attempt began (deliberate stalls excluded), 0 outside one. The
    runtime wires this to its per-core attempt clocks; defaults to a
    constant 0. Must not allocate. *)

val committed : t -> addr -> int
(** Committed value of an address (0 if never written). *)

val poke : t -> addr -> int -> unit
(** Initialise committed memory directly (workload setup). *)

val read : t -> core:Lk_coherence.Types.core_id -> speculative:bool -> addr -> int
(** Transactional reads see the core's own buffered writes first. *)

val write :
  t -> core:Lk_coherence.Types.core_id -> speculative:bool -> addr -> int -> unit
(** [speculative:true] buffers; [speculative:false] writes through. *)

val commit : t -> core:Lk_coherence.Types.core_id -> int
(** Apply the core's buffer to committed memory (transaction commit, or
    the moment an HTM transaction switches to irrevocable STL mode).
    Returns the number of addresses applied. *)

val discard : t -> core:Lk_coherence.Types.core_id -> int
(** Drop the core's buffer (abort). Returns the number of addresses
    dropped. *)

val buffered : t -> core:Lk_coherence.Types.core_id -> int
(** Current buffer size (tests). *)

val iter_buffered :
  t -> core:Lk_coherence.Types.core_id -> (addr -> int -> unit) -> unit
(** Visit the core's buffered speculative writes, unspecified order.
    Used by the invariant checkers ([lockiller.check]) to relate the
    speculative write set to the lines the L1 tracks, and by state
    fingerprinting. *)

val iter_committed : t -> (addr -> int -> unit) -> unit
(** Visit every committed address/value pair, unspecified order
    (checkers and state fingerprinting). *)
