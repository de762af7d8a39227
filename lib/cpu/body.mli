(** A transaction body held flat: the cores run a transaction from a
    reusable int buffer rather than an [op list], so drawing a body
    allocates nothing once the buffer has grown to fit it. A body is a
    sequence of slots, each an operation's kind and its operands, with
    the pre- and post-compute in a header. {!Program.pack} and
    {!Program.unpack} convert from and to a {!Program.transaction}. *)

type t

type kind = Compute | Read | Write | Incr | Add | Fault
(** The {!Program.op} a slot holds. *)

val create : unit -> t
(** An empty body. *)

val length : t -> int
(** Slots in use. *)

val pre_compute : t -> int
val post_compute : t -> int
val kind : t -> int -> kind

val operand : t -> int -> int
(** A [Compute]'s cycles, else the address ([Fault]: 0). *)

val value : t -> int -> int
(** A [Write]'s value, an [Add]'s delta, an [Incr]'s 1, else 0. *)

(** {2 Drawing a body} *)

val reserve : t -> int -> unit
(** [reserve b n] makes room for slots [0, n), no more: a body of known
    size then grows the buffer at most once, to fit. (Past the room,
    {!set} doubles what it needs.) *)

val set : t -> int -> kind -> int -> int -> unit
(** [set b i kind operand value] writes slot [i], growing the buffer
    to hold it. Raises [Invalid_argument] unless
    [-2{^59} <= operand < 2{^59}]. *)

val move : t -> src:int -> dst:int -> unit
(** Copy a slot. *)

val swap : t -> int -> int -> unit

val finish : t -> length:int -> pre_compute:int -> post_compute:int -> unit
(** The body is slots [0, length) and this header. *)
