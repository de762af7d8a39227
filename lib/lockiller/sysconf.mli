(** The evaluated systems of Table II.

    Every system is a composition of: the concurrency substrate (coarse
    locking or best-effort HTM), the recovery mechanism, the requester
    policy after a reject, the priority scheme, the HTMLock mechanism
    and the switchingMode mechanism. *)

type kind =
  | Cgl  (** Coarse-grained locking, same critical-section granularity. *)
  | Htm  (** Best-effort HTM with a fallback path. *)

type t = {
  name : string;
  kind : kind;
  recovery : bool;  (** NACK/reject support in the cache controllers. *)
  reject_policy : Lk_htm.Policy.reject_policy;
  priority : Lk_htm.Policy.priority_policy;
  htmlock : bool;  (** Lock transactions run concurrently with HTM. *)
  switching : bool;  (** Proactive switch to HTMLock mode on overflow. *)
  retry : Lk_htm.Policy.retry;
  lock : Lk_htm.Policy.lock_impl;
      (** Spinlock used by the CGL baseline (the fallback path always
          follows Listing 1's test-and-set idiom). *)
  fallback : Lk_htm.Policy.fallback_path;
      (** What exhausted HTM attempts fall back to: the paper's
          coarse-grained lock ([Cgl_lock], the default everywhere in
          Table II) or a TL2-style software transaction ([Tl2], the
          hybrid-TM comparators). *)
  clock : Lk_htm.Policy.clock_scheme;
      (** Global-version-clock discipline of the software path
          (ignored under [Cgl_lock]). *)
  instrumentation : Lk_htm.Policy.instrumentation;
      (** What the hardware path pays for software concurrency
          (ignored under [Cgl_lock]). *)
}

val cgl : t

val baseline : t
(** Best-effort HTM, requester-win. *)

val losa_safu : t
(** LosaTM without the false-sharing and capacity-overflow
    optimisations: NACK-based recovery with progression-based priority
    and wake-up (the paper's comparison target). *)

val lockiller_rai : t
(** Baseline + Recovery + SelfAbort + InstsBased. *)

val lockiller_rri : t
(** Baseline + Recovery + SelfRetryLater + InstsBased. *)

val lockiller_rwi : t
(** Baseline + Recovery + WaitWakeup + InstsBased. *)

val lockiller_rwl : t
(** Baseline + Recovery + WaitWakeup + HTMLock. *)

val lockiller_rwil : t
(** LockillerTM-RWI + HTMLock. *)

val lockiller : t
(** LockillerTM-RWI + HTMLock + SwitchingMode. *)

val all : t list
(** Table II order. *)

val cgl_ticket : t
(** CGL with a fair FIFO ticket lock instead of TTAS — an ablation of
    the locking baseline itself (not part of Table II). *)

val lockiller_rws : t
(** LockillerTM-RWI with statically assigned priorities — the paper's
    Section III-A alternative, for the ablation study (not part of
    Table II). *)

val extras : t list
(** The ablation-only systems above. *)

(** {1 Hybrid-TM comparator family}

    Not part of Table II (they never appear in the [table2]
    experiment); see [docs/HYBRID.md] for the design and the HyTM
    literature they reproduce. *)

val sw_tl2 : t
(** Pure software TL2: a zero-retry HTM system, so every critical
    section takes the software path. The software-only endpoint the
    instrumented hardware paths are compared against. *)

val hytm_gv1 : t
(** Uninstrumented hardware + TL2 software fallback with the eager GV1
    clock; mutual exclusion through the software-mode gate. *)

val hytm_gv5 : t
(** As {!hytm_gv1} with the lazy GV5 clock: fewer clock-line writes,
    same outcomes. *)

val hytm_rc : t
(** Read-check instrumentation (one clock load per transactional read)
    over GV1: hardware and software run concurrently; any software
    writer commit kills all running hardware transactions. *)

val hytm_md : t
(** Access-check (metadata) instrumentation over GV5: per-access
    version-stamp loads, so software commits kill exactly the hardware
    transactions they overlap. *)

val hybrid : t list
(** The five comparators above, software-only first. *)

val find : string -> t option
(** Case-insensitive lookup by name, over Table II, the extras and the
    hybrid comparators. *)

val lookup : string -> (t, string) result
(** {!find}, with the error every front-end reports for an unknown
    name: it lists each name {!find} accepts. *)

val validate : t -> (unit, string) result
(** Sanity rules: HTMLock requires recovery (lock transactions are
    protected by rejects); switchingMode requires HTMLock; CGL ignores
    every HTM knob; the TL2 fallback excludes HTMLock/switchingMode;
    instrumentation schemes require the TL2 fallback; [Read_check]
    requires [Gv1]. *)

val pp : Format.formatter -> t -> unit
