(** The global version clock of the hybrid-TM comparator family.

    TL2-style software transactions order themselves through a single
    monotonically increasing counter. Here the counter is one word of
    committed memory at a {e reserved, fixed cache line}, so clock
    reads and advances are ordinary coherence accesses: they travel to
    the line's home tile through the sharded LLC directory, appear in
    the flit counters, and — when a hardware transaction holds the
    line transactionally — participate in conflict detection like any
    other access. The value itself is held in {!Store} (committed
    memory); this module only fixes the location and the advance
    discipline.

    The two schemes of {!Policy.clock_scheme} share this module: under
    [Gv1] every software writer commit calls {!advance} with
    {!write_stamp}; under [Gv5] writers skip the advance and readers
    catch the clock up when they trip over a stamp from the future.

    This module performs no coherence traffic itself — callers issue
    the access for {!line} first and then read or update the value. *)

val line : Lk_coherence.Types.line
(** The reserved cache line holding the clock (line 2 — between the
    fallback-lock lines and the workload's data region). *)

val flag_addr : int
(** Second word of the clock line: the commit-in-progress flag used by
    the [Read_check] instrumentation scheme as a sequence lock. A
    software writer commit raises it while it validates and publishes;
    instrumented hardware reads check it (one load covers clock and
    flag — same line) and abort while it is set, so no hardware
    transaction can commit a read of a half-published write set. *)

val set_commit_flag : Store.t -> bool -> unit
(** Raise or clear the flag (no coherence traffic — callers issue the
    access for {!line}). *)

val read : Store.t -> int
(** Current clock value (0 before any advance). *)

val write_stamp : Store.t -> int
(** The version a software writer commit stamps its write set with:
    [read store + 1]. *)

val advance : Store.t -> to_:int -> bool
(** [advance store ~to_] raises the clock to [to_] if it is currently
    below it (a fetch-and-add under GV1, a reader catch-up under GV5);
    returns whether the clock moved. Never moves the clock backwards. *)
