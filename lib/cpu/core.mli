(** In-order core model: serves a queue of transactions through the
    transactional runtime.

    The core implements the software side of the paper: the
    [lock_acquire_elided] / [lock_release_elided] idioms of Listing 1
    (best-effort HTM with fallback-lock subscription) and Listing 2
    (HTMLock + switchingMode release dispatch on the extended ttest),
    the retry strategy with bounded attempts and exponential backoff,
    and the CGL baseline. It also attributes every cycle to an
    {!Accounting.category}. *)

type t
(** One core and its service queue. Transactions are {!submit}ted —
    by a trace replayer as they arrive (open loop), or by {!drive} one
    at a time as the previous one completes (closed loop) — and served
    in FIFO order. A queued entry holds a function that draws its body,
    not an op list, so a deep backlog costs O(1) memory per waiting
    transaction and a closed-loop thread is drawn one transaction at a
    time, into a buffer the core reuses. *)

val spawn :
  runtime:Lk_lockiller.Runtime.t ->
  core:Lk_coherence.Types.core_id ->
  accounting:Accounting.t ->
  on_done:(unit -> unit) ->
  unit ->
  t
(** Create a core bound to [core]'s L1/tile with an empty queue.
    Nothing runs until the first {!submit}. [on_done] fires once the
    core has been {!seal}ed and its queue has drained. *)

val submit :
  t -> gen:(Body.t -> unit) -> notify:(started:int -> unit) -> unit
(** Enqueue a transaction. [gen] draws its body into the core's own
    buffer when service begins; [notify ~started] fires at completion
    with the cycle service began (so the caller can split queueing
    delay from sojourn time). Invalid after {!seal}. *)

val seal : t -> unit
(** Declare the stream exhausted; the core finishes when its queue
    drains (immediately if already empty). *)

val drive : ?barrier:Barrier.t * int -> t -> Program.stream -> unit
(** Run a stream as a closed-loop thread: submit its first transaction
    now and each next one from the completion of the previous, then
    {!seal} after the last. [barrier = (b, k)] makes the thread
    synchronise on [b] after every [k] completed transactions
    (phase-structured workloads); every participating thread must use
    the same [k] and have the same transaction count, and [k] must be
    positive. Barrier wait time is accounted as non-tran, as in the
    paper's breakdown. *)

val finished : t -> bool
val finish_time : t -> int
(** Cycle at which the core finished (meaningful once [finished]). *)

val completed : t -> int
(** Transactions completed so far. *)
