(** One trace record: a transaction arrival.

    A trace is a sequence of records with nondecreasing [arrival]
    cycles. The record carries only the transaction's *footprint* —
    how many shared reads and writes its body performs — not the body
    itself; the replay engine synthesises a concrete body from the
    footprint and a workload profile at service time, so a trace of
    millions of arrivals costs a few bytes per transaction on disk and
    O(1) memory to replay. *)

type t = {
  arrival : int;  (** Absolute arrival cycle (>= 0, nondecreasing). *)
  core : int;
      (** Preferred service core, or [-1] for no affinity (the replay
          dispatcher balances round-robin). *)
  reads : int;  (** Shared-region reads in the body. *)
  writes : int;  (** Writes in the body. *)
  phase : int;
      (** Workload phase tag in [0, 15] — e.g. the generator's
          time-of-day quarter. Replay reports completions per phase. *)
}

val max_phase : int
(** 15: phases fit 4 bits in the binary encoding. *)

val validate : t -> (unit, string) result
(** Field-range check (arrival/reads/writes non-negative, core >= -1,
    phase in [0, {!max_phase}]). Monotonicity across records is checked
    by the streaming reader/writer, not here. *)

val equal : t -> t -> bool

(** {1 Line codec} — one record per line, [arrival core reads writes
    phase] as space-separated decimals. *)

val to_line : t -> string

val of_line : string -> (t, string) result
(** Parses one line; rejects missing/extra/ill-typed fields and any
    field out of range. *)
