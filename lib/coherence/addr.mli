(** Address arithmetic: byte addresses, cache lines, home banks.

    The LLC is banked one bank per tile; a line's home bank is the
    low-order interleaving [line mod tiles], the standard layout for
    tiled CMPs (and what gem5's Ruby uses for S-NUCA). *)

val line_size : int

val line_of_byte : int -> Types.line
(** Cache line containing a byte address. *)

val byte_of_line : Types.line -> int
(** First byte of a line. *)

val home_of_line : tiles:int -> Types.line -> int
(** Home tile (LLC bank) of a line. *)

val log2_exact : int -> int
(** [log2_exact n] is [log2 n] when [n] is a power of two, else [-1]:
    cache placement shifts and masks instead of dividing when a set or
    bank count is a power of two. *)

val lines_of_range : first_byte:int -> bytes:int -> Types.line list
(** All lines touched by the byte range; [bytes] must be positive. *)
