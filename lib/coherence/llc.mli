(** Shared, banked, inclusive last-level cache with a full-map
    directory.

    One bank per directory shard; a line's bank is chosen by the
    {!Shard} plan's address hash (under the default one-shard-per-tile
    [Mod] plan, exactly the historical [line mod tiles] home
    interleaving). Each resident LLC line embeds its directory state:
    either unowned with a (possibly empty) sharer set, or exclusively
    owned by one L1. The LLC is inclusive: every line resident in any
    L1 is resident here, so evicting an LLC line forces
    back-invalidation of L1 copies — the protocol layer performs that
    and must call [evict] only after it has done so.

    Storage follows the lines a run holds, not the capacity: an
    untouched set holds nothing, and a set's storage grows by doubling
    (1, 2, 4, ... up to [ways]) to cover its highest way in use. Each
    line keeps its way as the set grows, so victim choice and
    iteration order are those of a full-width set. *)

type dir = Sharers of Coreset.t | Owner of Types.core_id

type view = {
  line : Types.line;
  dir : dir;
  dirty : bool;  (** Holds data newer than memory. *)
}

type room = Present | Free | Evict of view

type t

val create : plan:Shard.t -> bank_size_bytes:int -> ways:int -> t
(** One bank per shard of [plan]. *)

val plan : t -> Shard.t
val banks : t -> int
val sets_per_bank : t -> int

val lookup : t -> Types.line -> view option

val room_for : t -> Types.line -> room
(** Allocation requirement for [line] in its home bank. Victim choice
    prefers lines with no L1 copies (their eviction is invisible to the
    cores), then LRU. *)

val insert : t -> Types.line -> unit
(** Install an absent line (clean, no sharers); requires a free way. *)

val evict : t -> Types.line -> view
(** Remove a resident line, returning its final view. The caller is
    responsible for back-invalidation and memory writeback. *)

val touch : t -> Types.line -> unit

val dir_of : t -> Types.line -> dir
(** Directory state of a resident line. Raises if absent. *)

val set_dir : t -> Types.line -> dir -> unit
(** [dir_of] and [set_dir] convert; the protocol works on the entry
    below. *)

val set_dirty : t -> Types.line -> bool -> unit

(** {1 The directory entry, one core at a time}

    A resident line's entry is one int: its owner, or its sharers as a
    bitset on a machine of at most 62 cores (a [Coreset] held by index
    on a wider one), so the operations below allocate nothing on the
    narrow machines. Each raises if the line is not resident. *)

val owner : t -> Types.line -> Types.core_id
(** The core that owns the line, or -1. *)

val unshared : t -> Types.line -> bool
(** Neither owned nor shared. *)

val set_owner : t -> Types.line -> Types.core_id -> unit

val clear : t -> Types.line -> unit
(** Neither owned nor shared from now on. *)

val is_sharer : t -> Types.line -> Types.core_id -> bool

val add_sharer : t -> Types.line -> Types.core_id -> unit
(** Requires an unowned line. *)

val remove_core : t -> Types.line -> Types.core_id -> unit
(** The core no longer holds a copy: an owner leaves the line unshared,
    a sharer leaves the set. *)

type members
(** A copy of a line's sharers, which later changes to the entry leave
    as they were. *)

val members : unit -> members

val snapshot : t -> Types.line -> members -> unit
(** Copy the sharers of the line (none when it is owned) into the
    members. *)

val next : t -> members -> Types.core_id -> Types.core_id
(** [next t m c] is the least member at or above [c], or -1. *)

val count : t -> members -> int

val resident : t -> Types.line -> bool
val occupancy : t -> int

val iter : t -> (view -> unit) -> unit
(** Every resident view, in set order (bank-major, then set within the
    bank) and way order within a set. *)

val iter_shard : t -> int -> (view -> unit) -> unit
(** [iter_shard t s f] applies [f] to every view resident in shard
    [s]'s bank — the shard-consistency invariant walk. *)
