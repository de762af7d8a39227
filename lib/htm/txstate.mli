(** Per-core transactional execution state.

    The mode distinguishes TL from STL (both are lock transactions in
    HTMLock mode, i.e. [Lock_tx] at the coherence layer) because the
    release idiom differs (Listing 2: STL never touched the fallback
    lock, TL must release it) and because the paper's extended [ttest]
    instruction reports them separately. *)

type mode =
  | Idle  (** Not inside any critical section. *)
  | Htm  (** Speculative HTM transaction. *)
  | Tl  (** Lock transaction that entered HTMLock mode via hlbegin. *)
  | Stl  (** HTM transaction that proactively switched to HTMLock. *)
  | Sw
      (** TL2-style software transaction on the hybrid fallback path.
          At the coherence layer it is an ordinary non-transactional
          party (its reads and writes cannot be conflict-aborted); the
          transactional semantics come from version validation at
          commit time. *)

type t = {
  core : Lk_coherence.Types.core_id;
  mutable mode : mode;
  mutable epoch : int;
      (** Bumped on every abort; in-flight requests from older epochs
          are stale. *)
  mutable insts : int;
      (** Instructions executed in the current attempt (the paper's
          committed-instructions priority). *)
  mutable progress : int;
      (** Body operations completed in the current attempt (LosaTM's
          progression priority). *)
  mutable attempt : int;
      (** HTM attempt number for the current critical section (0 on
          first try). *)
  mutable switch_tried : bool;
      (** switchingMode is attempted at most once per transaction
          attempt. *)
  mutable pending_abort : Reason.t option;
      (** Set when the transaction was aborted asynchronously; the core
          observes it at its next step boundary. *)
  mutable tx_seq : int;
      (** Critical sections completed by this core (feeds the static
          priority draw). *)
  mutable static_priority : int;
      (** Fixed priority of the current transaction under the
          [Static_based] policy; drawn at the first attempt and kept
          across retries. *)
  mutable rv : int;
      (** Read version of the current software ([Sw]) transaction: the
          {!Global_clock} value sampled at swbegin. Reads observing a
          stamp beyond it abort (after catching the clock up). *)
}

val create : Lk_coherence.Types.core_id -> t

val in_critical : t -> bool

val reset_attempt : t -> unit
(** Clear per-attempt counters (insts, progress, switch flag) when a
    transaction (re)starts. *)

val begin_htm : t -> unit
(** Enter speculative mode for a new attempt; bumps nothing. *)

val abort : t -> Reason.t -> unit
(** Asynchronous abort: bump the epoch, record the reason, leave
    critical mode. The value-layer rollback is the runtime's job. *)

val finish : t -> unit
(** Leave critical mode after a commit or hlend; resets attempt
    bookkeeping for the next transaction. *)

val pp_mode : Format.formatter -> mode -> unit
