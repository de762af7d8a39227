(** Open-addressing hash table specialised to non-negative int keys.

    A drop-in for the hot-path uses of [Hashtbl] keyed on cache lines
    and addresses: one-multiply Fibonacci hashing (no polymorphic hash),
    linear probing over a flat pair of int arrays (no bucket cells, no
    write barrier), allocation only on growth. Iteration order is
    unspecified but deterministic: it depends only on the sequence of
    operations. [remove] leaves no tombstone (backward-shift
    deletion). *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is rounded up to a power of two (minimum 4). *)

val length : t -> int
val is_empty : t -> bool

val mem : t -> int -> bool
val find_opt : t -> int -> int option

val find : t -> int -> default:int -> int
(** Allocation-free lookup. *)

val replace : t -> int -> int -> unit
(** Insert or overwrite. Raises [Invalid_argument] on a negative key. *)

val remove : t -> int -> unit
(** No-op when absent. *)

val iter : t -> (int -> int -> unit) -> unit
(** Every binding, in slot order. *)

val fold : t -> init:'b -> f:(int -> int -> 'b -> 'b) -> 'b
(** Every binding, in {!iter}'s order. *)

val reset : t -> unit
(** Drop every binding, keeping the current capacity. The walk stops at
    the last binding, so an empty table costs nothing. *)
