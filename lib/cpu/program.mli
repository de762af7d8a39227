(** Thread programs: the workload representation executed by the
    simulated cores.

    A thread is a sequence of transactions; each transaction has
    non-transactional work around a critical-section body. Bodies are
    lists of abstract operations — enough to reproduce any STAMP
    application's transactional profile (lengths, read/write mix,
    contention, faults) while keeping verifiable value semantics:
    [Incr] is a read-modify-write whose committed effects must add up,
    which is how the test suite checks atomicity end to end. *)

type op =
  | Compute of int  (** [n] cycles of local work ([n] instructions). *)
  | Read of int  (** Load from a byte address. *)
  | Write of int * int  (** Store a literal value to a byte address. *)
  | Incr of int  (** Atomic increment of the counter at a byte address. *)
  | Add of int * int
      (** Atomic add of a (possibly negative) delta — bank-transfer
          style updates whose committed sums tests can check. *)
  | Fault
      (** An exception fires here (page fault, syscall...). Best-effort
          HTM aborts; lock transactions survive. *)

type transaction = {
  pre_compute : int;  (** Non-transactional cycles before the body. *)
  ops : op list;  (** Critical-section body. *)
  post_compute : int;  (** Non-transactional cycles after. *)
}

type thread = transaction list

type t = thread array
(** One thread per participating core, indexed by core id. *)

type cursor = { length : int; next : unit -> transaction }
(** A thread drawn on demand as op lists: [length] transactions, the
    [i]-th returned by the [i]-th call of [next] (call it at most
    [length] times). A core runs one through {!stream}. *)

val cursor : thread -> cursor
(** Replays a materialised thread (hand-written programs, check
    scenarios, tests). *)

(** {1 Flat bodies}

    The cores run a transaction from a {!Body.t}, a reusable int
    buffer, rather than from an [op list]. {!pack} and {!unpack}
    convert. *)

val pack : transaction -> Body.t -> unit
(** Draw the transaction into the body. *)

val unpack : Body.t -> transaction

type stream = { count : int; draw : Body.t -> unit }
(** A thread drawn flat: [count] transactions, the [i]-th drawn into a
    body by the [i]-th call of [draw]. Closed-loop cores pull their
    transactions through a stream ({!Core.drive}), so a generated
    thread never exists as a whole. *)

val stream : cursor -> stream
(** The cursor's transactions, each packed as it is drawn. *)

val op_count : op list -> int
(** Number of instructions a body executes (computes count their cycle
    count, memory operations one each). *)

val transactions : t -> int
(** Total transactions across all threads. *)

val touched_addresses : t -> int list
(** Sorted distinct byte addresses appearing in any body (tests,
    conservation checks). *)

val validate : t -> (unit, string) result
(** Reject negative compute amounts and negative addresses. *)

val to_text : t -> string
(** Render a program in the line-oriented text format below —
    hand-editable and stable, for saving and sharing custom workloads:

    {v
    # comment
    thread
      tx pre=10 post=5
        compute 30
        read 0x1000
        write 0x2040 7
        incr 0x1000
        add 0x3000 -5
        fault
      tx pre=0 post=0
        incr 0x1000
    thread
      ...
    v} *)

val of_text : string -> (t, string) result
(** Parse the {!to_text} format. Addresses accept decimal or [0x] hex.
    Errors carry the offending line number. *)
