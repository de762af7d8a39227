(** Discrete-event simulation kernel.

    A simulation owns a clock (in CPU cycles) and a pending-event set.
    Components post events at future cycles; [run] drains the queue in
    (time, insertion) order, advancing the clock. The kernel guarantees
    determinism: no wall-clock time, no global RNG, no reliance on hash
    ordering in the event path.

    An event is a registered {!handler} and an int argument, stored as
    one int: the hot sites (every hop of a memory access) register
    their handler once, when the machine is built, and {!post} then
    allocates nothing and stores no pointer. {!schedule} takes a closure
    for the cold sites; it parks the closure in a side table and posts
    a handler that runs it. *)

type t

val create : unit -> t

val now : t -> int
(** Current simulated cycle. *)

val events : t -> int
(** Events fired so far — the numerator of the events/sec throughput
    metric ({!Lk_sim.Perf} in the sim library). *)

type handler

val handler : t -> name:string -> (int -> unit) -> handler
(** Register an event handler. Call it once per site when the machine
    is built, never per event; at most 65,536 handlers per simulation. *)

val unset : handler
(** A placeholder for a handler field filled in after its owner is
    built; firing it raises. *)

val post : t -> delay:int -> handler -> int -> unit
(** [post sim ~delay h arg] runs [h arg] at [now sim + delay], ordered
    like {!schedule}. [h] must be registered on [sim] and [arg] be in
    \[0, 2{^46}). Allocates nothing. *)

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** [schedule sim ~delay f] runs [f] at [now sim + delay]. [delay] must
    be non-negative; a zero delay runs [f] later in the same cycle,
    after all previously scheduled same-cycle events. *)

val schedule_at : t -> time:int -> (unit -> unit) -> unit
(** Schedule at an absolute cycle, which must not be in the past. *)

val pending : t -> int
(** Number of scheduled events not yet fired. *)

exception Stalled of string
(** Raised by [run] when the quiescence hooks keep injecting work
    without the clock ever advancing — a livelocked rescue loop. *)

val on_quiescent : t -> (unit -> unit) -> unit
(** Register a hook called when the event queue drains. The hook may
    schedule new work (e.g. a watchdog re-arming a parked core); if it
    schedules nothing, [run] returns. *)

val run : ?limit:int -> t -> unit
(** Drain the event queue. [limit] bounds the final simulated cycle;
    events beyond it are discarded and [run] returns with the clock set
    to [limit]. Without a limit, runs until quiescent. *)

(** {1 Schedule exploration}

    Hooks for the correctness checkers in [lockiller.check]. Both
    default to [None] and cost the kernel exactly one branch per event
    when unset — a normal simulation pays nothing for them. *)

val set_chooser : t -> (int -> int) option -> unit
(** Install (or clear) the schedule chooser. When set and more than one
    event shares the earliest pending time, the kernel calls
    [choose n] with the size [n >= 2] of that runnable set and fires
    the event whose 0-based insertion rank within the set is the
    returned index (which must be in [0, n)). Insertion order — index
    0 every time — reproduces the default deterministic schedule. The
    explorer enumerates these indices exhaustively; the fuzzer draws
    them from a seeded RNG. *)

val set_observer : t -> (unit -> unit) option -> unit
(** Install (or clear) a callback invoked after every fired event —
    the invariant sanitizer's per-step observation point. The observer
    runs after the event's thunk returns, so it sees a settled
    state. *)
