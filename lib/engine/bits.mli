(** Bit tricks on int words. *)

val lowest_bit : int -> int
(** The index of the lowest set bit of a non-zero, non-negative word. *)

val popcount : int -> int
(** The number of set bits of a non-negative word. *)
