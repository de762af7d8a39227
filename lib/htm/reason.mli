(** Abort reasons, matching the six categories of Fig 10 in the paper.

    - [Conflict_htm] ("mc"): memory conflict with another HTM
      transaction.
    - [Conflict_lock] ("lock"): conflict with a lock transaction running
      under the HTMLock mechanism (TL or STL mode).
    - [Conflict_mutex] ("mutex"): killed by a thread acquiring the
      fallback lock the transaction had subscribed to (best-effort HTM
      lock-elision idiom).
    - [Conflict_non_tx] ("non_tran"): conflict with an ordinary
      non-transactional access (excluding the two cases above).
    - [Capacity] ("of"): transactional read/write set overflowed the
      cache (or an inclusivity back-invalidation evicted a
      transactional line).
    - [Fault] ("fault"): exception inside the transaction; best-effort
      HTM aborts unconditionally.

    One extra category beyond Fig 10 exists for the hybrid-TM
    comparators:

    - [Validation] ("valid"): a TL2-style software transaction failed
      commit-time read-set validation (or lost a commit-lock /
      stamp-freshness race). Never raised by the paper's systems. *)

type t =
  | Conflict_htm
  | Conflict_lock
  | Conflict_mutex
  | Conflict_non_tx
  | Capacity
  | Fault
  | Validation

val all : t list
(** In the paper's presentation order: mc, lock, mutex, non_tran, of,
    fault — followed by the hybrid-only valid. *)

val label : t -> string
(** The paper's short label for the category. *)

val index : t -> int
(** Position in [all]; stable array index for per-reason counters. *)

val count : int
(** [List.length all]. *)

val classify_conflict :
  aggressor_mode:Lk_coherence.Types.mode ->
  line:Lk_coherence.Types.line ->
  lock_line:Lk_coherence.Types.line ->
  t
(** Category of a conflict abort given who won: a non-transactional
    access to the fallback lock is [Conflict_mutex]; other non-tx
    accesses are [Conflict_non_tx]; lock transactions give
    [Conflict_lock]; HTM transactions give [Conflict_htm]. *)
