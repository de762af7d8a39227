(** Bookkeeping for the TL2-style software fallback path.

    A software transaction reads optimistically, buffers its writes in
    the speculative {!Store} buffer, and at commit time locks its
    write set, validates its read set and publishes. The unit of
    versioning is a {e slot}: cache lines hash onto a fixed table of
    {!slots} version stamps (TL2's striped lock table), so false
    conflicts between lines sharing a slot are possible — exactly as
    in the real algorithm.

    Each slot's stamp is one word of committed memory at a reserved
    meta line ({!meta_line_of_slot}), encoded by {!stamp_word} /
    {!version_of} / {!locked}: low bit = commit-time write lock, upper
    bits = the version (a {!Global_clock} write stamp). Keeping stamps
    in ordinary memory means software validation traffic flows through
    the coherence protocol and — under the [Access_check]
    instrumentation scheme — conflicts with hardware transactions that
    touched the same meta line.

    This module itself is pure bookkeeping (no coherence traffic):
    per-core read/write sets on scratch arrays and the lock-ownership
    table the runtime uses to detect lock conflicts. A core's sets
    start empty and double when full, up to {!slots} entries, so a
    core that never takes the software path holds none, and one that
    does stops allocating once its sets reach their working size. *)

val slots : int
(** Number of version-stamp slots (256). *)

val slot_of_line : Lk_coherence.Types.line -> int
(** The slot a data line hashes to ([line mod slots]). *)

val meta_line : Lk_coherence.Types.line -> Lk_coherence.Types.line
(** The meta line carrying [slot_of_line line]'s stamp. *)

val meta_line_of_slot : int -> Lk_coherence.Types.line
val meta_addr_of_slot : int -> int
(** Byte address of a slot's stamp word. *)

val gate_line : Lk_coherence.Types.line
(** The software-mode gate of the [Uninstrumented] scheme (line 3): a
    population count of running software transactions. Hardware
    transactions subscribe to it at begin and abort unless it is 0;
    software transactions RMW it on entry/exit, so entering software
    mode kills every subscribed hardware transaction. *)

val gate_addr : int

(** {1 Meta-word encoding} *)

val locked : int -> bool
(** Low bit: a writer holds the slot's commit-time lock. *)

val version_of : int -> int
(** The version stamp (upper bits). *)

val stamp_word : int -> int
(** [stamp_word v] is the unlocked word carrying version [v]. *)

val lock_word : int -> int
(** Set the lock bit, preserving the version. *)

(** {1 Per-core transaction state} *)

type t

val create : cores:int -> t

val reset : t -> int -> unit
(** Clear a core's read and write sets (begin / after abort). Locks
    are released separately ({!unlock}). *)

val note_read : t -> core:int -> slot:int -> version:int -> unit
(** Record a read of [slot] at [version] (the first observation wins;
    commit-time validation exact-matches it). A repeat costs O(1): a
    per-core bitset over the slots, cleared through the set by
    {!reset}. *)

val note_write : t -> core:int -> slot:int -> unit
(** Record a write of [slot], once, in O(1) like {!note_read}. *)

val writes : t -> core:int -> int

val iter_reads : t -> core:int -> (int -> int -> unit) -> unit
(** [iter_reads t ~core f] calls [f slot version] per read-set entry. *)

val sort_writes : t -> core:int -> unit
(** Sort the write set ascending — locks must be taken in slot order
    so concurrent software commits cannot deadlock. *)

val iter_writes : t -> core:int -> (int -> unit) -> unit

(** {1 Commit-time write locks} *)

val owner : t -> int -> int option

val owner_id : t -> int -> int
(** Like {!owner} but allocation-free: the core holding the slot's
    write lock, or -1 when free. The validation-abort attribution path
    reads this to name the aggressor without boxing an option. *)

val try_lock : t -> core:int -> int -> bool
(** Take [slot]'s lock for [core]; true if acquired (or already held
    by [core]), false if another core holds it. *)

val unlock : t -> core:int -> int -> unit
val locks_held : t -> core:int -> int
