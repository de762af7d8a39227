(** Shared vocabulary of the memory subsystem. *)

type core_id = int
(** Index of a core / private L1 / tile (cores are bound 1:1 to tiles). *)

val core_bits : int
(** Every core id fits in this many bits (at most 1,024 cores), so an
    event argument can carry one below other fields. *)

type line = int
(** Cache-line index: byte address [lsr] log2(line size). All coherence
    and conflict detection is line-granular, like the modelled
    hardware. *)

type access =
  | Read
  | Write
  | Rmw
      (** Atomic read-modify-write (lock acquire). Coherence-wise an
          [Rmw] behaves like a [Write] (needs exclusive ownership); the
          distinction is kept for statistics and for the value layer. *)

val is_write : access -> bool

(** How the requesting core was executing when it issued a request.
    Conflict arbitration (Fig 4 of the paper) depends on it. *)
type mode =
  | Htm_tx  (** Speculative HTM transaction. *)
  | Lock_tx
      (** Irrevocable lock transaction in HTMLock mode (TL or STL). *)
  | Non_tx  (** Ordinary, non-speculative execution. *)

type party = private int
(** Identity of a requester or holder in a conflict, packed in one int:
    its execution mode and its user-defined priority (the paper carries
    it in the ARUSER bus field). [Lock_tx] parties always use
    {!top_priority}. *)

val top_priority : int
(** The largest priority a party carries; larger ones are clamped to
    it. *)

val party : mode:mode -> priority:int -> party
(** Raises [Invalid_argument] on a negative [priority]. *)

val party_mode : party -> mode
val party_priority : party -> int

val in_tx : party -> bool
(** The mode is [Htm_tx] or [Lock_tx]. *)

val non_tx_party : party
(** Non-transactional accesses: they win against speculative
    transactions (best-effort HTM semantics) which we encode as
    {!top_priority} with mode [Non_tx]. *)

val no_party : party
(** What a client's context answers for a stale request. *)

type outcome = int
(** How a request ended: {!granted}, {!rejected_by_signatures}, or the
    id of the core whose transaction caused the rejection (the
    recovery mechanism withdrew the request). *)

val granted : outcome
val rejected_by_signatures : outcome

(** A deliberately broken protocol variant, used only by the mutation
    self-tests of the correctness checkers ([lockiller.check]): each
    fault disables exactly one guard the invariant catalogue is
    supposed to police, proving the checkers actually detect real
    violations (checker-of-the-checker).

    - [Swmr_violation]: the directory forwards a read from an exclusive
      owner without downgrading the owner to shared — two cores end up
      with incompatible views of the line.
    - [Lost_wakeup]: the runtime drops the first waiter when draining a
      wake table — a parked core that nobody will ever wake.
    - [Dirty_commit]: [xend] skips the epoch check that turns a
      committed-but-killed transaction into an abort — a killed
      transaction publishes its speculative writes. *)
type injected_fault = Swmr_violation | Lost_wakeup | Dirty_commit

val fault_label : injected_fault -> string
(** Stable CLI/report label: ["swmr-violation"], ["lost-wakeup"],
    ["dirty-commit"]. *)
