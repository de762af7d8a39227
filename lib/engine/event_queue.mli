(** Pending-event set of the discrete-event kernel.

    Events pop in (time, insertion) order — the sequence number assigned
    at insertion breaks same-cycle ties, so every simulation run is
    fully deterministic. The set is a calendar-queue / timing-wheel
    hybrid: a near wheel of power-of-two buckets (one cycle per bucket)
    serves the common case — events scheduled within ~1k cycles of the
    clock — in O(1); events beyond the horizon overflow into a small
    min-heap and are drained back as the window slides with the
    clock.

    Events live in one flat store: an event is an int id, and its
    time, sequence number, chain link and int payload sit side by side
    in one [int array]; the wheel's buckets and the far heap hold ids. Ids
    are recycled, so steady-state scheduling allocates nothing, and no
    store needs a write barrier. An occupancy bitmap over the wheel's
    buckets lets the queue skip runs of empty cycles a word at a
    time. {!Sim} packs a handler and its argument into the payload. *)

type t

val create : unit -> t

val length : t -> int

val add : t -> time:int -> int -> unit
(** [add q ~time ev] schedules [ev] at [time]. [time] may equal the time
    of previously popped events (the kernel enforces monotonicity, not
    the queue); times far in the past of the current window are legal
    but leave the wheel's fast path. *)

val no_event : int
(** Sentinel returned by {!next_time} on an empty queue ([min_int],
    never a legal event time for the kernel). *)

val next_time : t -> int
(** Time of the earliest pending event, or {!no_event} when empty.
    Never allocates. *)

val pop_payload : t -> int
(** Remove the earliest event, insertion order breaking ties, and
    return its payload; read its time with {!next_time} first, which
    leaves the event where this call takes it. Never allocates. Raises [Invalid_argument] on an empty queue. *)

(** {2 Schedule exploration}

    The model explorer and schedule fuzzer in [lockiller.check] treat
    the group of pending events sharing the earliest time — the
    {e runnable set} — as the nondeterminism of the model: the kernel
    normally fires them in insertion order, and these two calls let a
    checker pick any other member instead. Neither is ever called by
    the kernel unless a chooser is installed on the {!Sim}. *)

val runnable : t -> int
(** Number of pending events sharing the earliest pending time (0 when
    empty). *)

val pop_payload_nth : t -> int -> int
(** [pop_payload_nth q k] removes and returns the payload of the [k]-th
    (0-based, insertion order) event among the earliest-time events.
    [pop_payload_nth q 0] is exactly {!pop_payload}. Raises
    [Invalid_argument] when [k] is out of range or the queue is
    empty. *)

val clear : t -> unit
