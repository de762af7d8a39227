(** Private L1 data cache with transactional metadata.

    Set-associative, LRU within a set. Each resident line carries a
    MESI state (Invalid is represented by absence), a dirty bit, and
    the two per-line transactional bits ([tx_read]/[tx_write]) used by
    best-effort HTM for conflict detection and by HTMLock's TL/STL
    modes for bookkeeping.

    Victim selection prefers a free way, then the LRU non-transactional
    line; a transactional line is only chosen when the whole set is
    transactional — that is precisely the capacity-overflow event the
    paper's switchingMode mechanism targets.

    A cache allocates its slots on its first {!insert}; before that it
    holds a few words and answers every query as an all-invalid
    cache, so a core that never runs a thread costs almost nothing. *)

type state = M | E | S

type view = {
  line : Types.line;
  state : state;
  dirty : bool;
  tx_read : bool;
  tx_write : bool;
}

type t

val create : size_bytes:int -> ways:int -> t
(** Line size is fixed by {!Addr.line_size}. [size_bytes] must be a
    positive multiple of [ways * line_size]. *)

val sets : t -> int
val ways : t -> int

val lookup : t -> Types.line -> view option
(** Resident view of a line, without touching LRU state. *)

(** {1 Flag queries}

    The hot paths read a line's state as one int instead of a
    {!view}: {!flags_of} returns its flag word (or {!absent}) without
    allocating, and the predicates below decode it. *)

val absent : int
(** The flag word of a line that is not resident (negative). *)

val flags_of : t -> Types.line -> int
(** Flag word of a resident line, or {!absent}; LRU state untouched. *)

val exclusive : int -> bool
(** Held in [M] or [E]. *)

val dirty : int -> bool
val tx_write : int -> bool

val in_tx : int -> bool
(** [tx_read] or [tx_write]. *)

(** {1 Slots}

    A slot index names a resident line's way until the next
    {!insert}, {!remove} or {!clear_tx} on the cache, so one search
    serves every step of an access. *)

val probe : t -> Types.line -> int
(** The slot holding [line], or a negative value when it is absent. *)

val flags_at : t -> int -> int
(** The flag word of a slot from {!probe}. *)

val touch_at : t -> int -> unit
val set_state_at : t -> int -> state -> unit

val mark_tx_at : t -> int -> Types.line -> write:bool -> unit
(** [mark_tx_at t slot line ~write] is {!mark_tx} on the slot [line]
    occupies. *)

val touch : t -> Types.line -> unit
(** Mark the line most-recently used. No-op when absent. *)

val victim : t -> Types.line -> Types.line
(** For an absent [line]: the line allocating it must evict first, or
    -1 when a way is free. Allocates nothing. *)

val insert : t -> Types.line -> state -> unit
(** Install an absent line; requires a free way (evict first). Raises
    [Invalid_argument] if the line is present or the set is full. The
    new line is most-recently used and carries no tx bits. *)

val set_state : t -> Types.line -> state -> unit
(** Change the MESI state of a resident line. [M] implies dirty. *)

val mark_dirty : t -> Types.line -> unit

val clear_dirty : t -> Types.line -> unit
(** After a writeback: the LLC copy is current again. *)

val mark_tx : t -> Types.line -> write:bool -> unit
(** Set the transactional read (or write) bit of a resident line. *)

val remove : t -> Types.line -> int
(** Invalidate a resident line, returning its final flag word (the
    caller decides about writebacks). Raises if absent. *)

val resident : t -> Types.line -> bool

val tx_lines : t -> view list
(** All lines with a transactional bit set. O(tracked lines). *)

val clear_tx : t -> drop_written:bool -> (Types.line -> unit) -> int
(** End-of-transaction bulk operation: clear every tx bit. When
    [drop_written] (abort path) lines that were transactionally written
    are invalidated — their speculative data is discarded — and the
    callback runs on each such line, in ascending line order. Returns
    the number of lines that carried tx bits. Builds no list. *)

val occupancy : t -> int
(** Resident line count (for tests). *)

val tx_count : t -> int
(** Number of transactionally marked resident lines (the length of
    {!tx_lines}, without building the list — allocation-free, for the
    telemetry sampler). *)

val iter : t -> (view -> unit) -> unit
