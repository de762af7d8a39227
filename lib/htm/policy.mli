(** Configuration knobs of the transactional systems in Table II.

    The paper composes its systems from: the recovery mechanism
    (reject/NACK support), a requester-side policy for rejected
    requests, a transaction priority scheme, the HTMLock mechanism and
    the switchingMode mechanism. *)

(** What a requester does when its conflicting request is withdrawn by
    the recovery mechanism (Section III-A: "abort directly, pause for
    a fixed period before retrying, or wait for a wake-up"). *)
type reject_policy =
  | Self_abort  (** Abort the requesting transaction ("SelfAbort"). *)
  | Retry_later of int
      (** Reissue after a fixed pause in cycles ("SelfRetryLater"). *)
  | Wait_wakeup
      (** Park until the rejector commits or aborts ("WaitWakeup"). *)

(** Global transaction priority scheme carried on requests. *)
type priority_policy =
  | No_priority
      (** All transactions tie; the lower core id wins (the paper's
          tie-break). Used by LockillerTM-RWL. *)
  | Insts_based
      (** Committed-instructions-based dynamic priority: a transaction
          that re-executes after an abort restarts at the lowest
          priority (the paper's scheme). *)
  | Progression_based
      (** LosaTM's scheme: progress through the transaction body. *)
  | Static_based
      (** A priority fixed before the transaction starts and unchanged
          across its retries (the paper's Section III-A alternative:
          no priority inversion, but "selecting a reasonable priority
          is difficult"). Implemented as a per-(core, transaction)
          pseudo-random draw. *)

(** Spinlock implementation for coarse-grained locking (ablation of the
    CGL baseline; the fallback path always uses the paper's
    test-and-set idiom of Listing 1). *)
type lock_impl =
  | Ttas  (** Test-and-test-and-set with bounded exponential backoff. *)
  | Ticket
      (** FIFO ticket lock: a fetch-and-increment ticket plus a
          now-serving counter on a separate line; fair and free of
          release-time RMW storms. *)

type retry = {
  max_retries : int;
      (** HTM attempts before taking the fallback path (Listing 1's
          TME_MAX_RETRIES). *)
  backoff_base : int;
      (** Cycles of exponential backoff unit between HTM retries. *)
  backoff_cap : int;  (** Upper bound on a single backoff pause. *)
}

val default_retry : retry

val backoff_delay : retry -> attempt:int -> int
(** Deterministic bounded exponential backoff for the [attempt]-th
    retry (0-based). *)

val pp_reject_policy : Format.formatter -> reject_policy -> unit
val pp_priority_policy : Format.formatter -> priority_policy -> unit

(** {1 Hybrid-TM comparator family}

    The knobs below configure the hybrid-TM comparators (not part of
    the paper's Table II): a TL2-style software transaction path that
    replaces the CGL fallback, coordinated through a global version
    clock, with a selectable instrumentation scheme on the hardware
    path. See [docs/HYBRID.md] for how the combinations map onto the
    HyTM literature's claims. *)

(** How software-commit timestamps relate to the global version clock
    (one contended cache line served by the sharded directory). *)
type clock_scheme =
  | Gv1
      (** Eager (TL2's GV1): every software writer commit
          fetch-and-adds the clock, so the clock line is written once
          per software commit and any hardware transaction subscribed
          to it is killed. *)
  | Gv5
      (** Lazy (TL2's GV5 family): writers stamp [clock + 1] without
          advancing the clock; a reader that observes a stamp beyond
          its read version advances the clock to the stamp (one extra
          RMW on its abort path) and retries. Fewer clock writes,
          slightly staler read versions. *)

(** What a best-effort HTM transaction falls back to when its retry
    budget is exhausted. *)
type fallback_path =
  | Cgl_lock
      (** The paper's fallback: a coarse-grained spinlock (Listing 1),
          possibly elided through HTMLock. *)
  | Tl2
      (** A TL2-style software transaction: per-location version
          stamps, commit-time write locks and read-set validation —
          software transactions run concurrently with each other and
          (depending on {!instrumentation}) with hardware ones. *)

(** What the {e hardware} path pays so that software transactions can
    run concurrently with it ([fallback = Tl2] only). The extra
    accesses are charged inside the transaction, so they enlarge its
    window of vulnerability exactly as the HyTM papers describe. *)
type instrumentation =
  | Uninstrumented
      (** The hardware path is left untouched; soundness then requires
          mutual exclusion, so hardware transactions subscribe to a
          software-mode gate and cannot start (or survive) while any
          software transaction runs. *)
  | Read_check
      (** One extra transactional load of the global clock per
          transactional read: under {!Gv1} any software writer commit
          kills every running hardware transaction (coarse but
          cheap). Requires {!Gv1}. *)
  | Access_check
      (** One extra transactional load of the location's version-stamp
          line per transactional read {e and} write: software commits
          kill exactly the hardware transactions they overlap
          (precise, twice the coherence traffic). *)

val pp_clock_scheme : Format.formatter -> clock_scheme -> unit
val pp_instrumentation : Format.formatter -> instrumentation -> unit
