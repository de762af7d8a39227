(** Compact sets of core ids (directory sharer lists).

    Backed by a canonical multi-word bitset (32 ids per word, no
    trailing zero words), which supports machines up to
    {!max_cores} = 1024 cores; sets confined to cores 0..31 — every
    set on the paper's 32-core machine — stay one word wide. The
    interface is functional, as the directory code expects. *)

type t

val max_cores : int

val empty : t
val singleton : Types.core_id -> t
val add : Types.core_id -> t -> t
val remove : Types.core_id -> t -> t
val mem : Types.core_id -> t -> bool
val is_empty : t -> bool
val cardinal : t -> int
val elements : t -> Types.core_id list
(** Ascending order. *)

val iter : (Types.core_id -> unit) -> t -> unit

val next : t -> Types.core_id -> Types.core_id
(** [next s c] is the least member of [s] at or above [c] (which must
    be non-negative), or [-1]: an allocation-free ascending walk. *)

val of_list : Types.core_id list -> t

val of_bits : int -> t
(** The set whose members are the bits set in a non-negative word (ids
    0 to 61). *)
