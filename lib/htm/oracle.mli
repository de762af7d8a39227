(** Serializability oracle.

    Every committed critical section (an HTM transaction, an HTMLock
    TL/STL lock transaction, or a plain critical section under the
    lock) reports its operation log: reads with the value observed,
    writes with the value stored. The oracle replays each section
    against a model store the moment it commits; every observed read
    must equal the model's value at that point (reads-after-own-writes
    see the section's own effects). The log is then dropped, so memory
    is O(addresses touched + in-flight sections), whatever the run
    length.

    Completion order is a valid serialization order for this system:
    plain sections are totally ordered by the lock and exclude
    speculation (fallback-lock subscription); HTM transactions are
    atomic at commit; TL/STL sections only ever read data that no
    concurrent transaction can overwrite (rejects) — so any read they
    performed is consistent with serialising at their end. A
    verification failure therefore means isolation was broken.

    Checking online needs sections to commit in (end_time, recording
    order) order. The runtime stamps [end_time] with the simulated
    clock, which never goes backwards, so this holds by construction;
    {!commit} enforces it. *)

type op =
  | R of int * int  (** address, value observed *)
  | W of int * int  (** address, value written *)

(** How the critical section executed (for diagnostics). [Sw_commit]
    is a committed TL2-style software transaction of the hybrid-TM
    comparators: its serialization point is the commit (locks held,
    read set validated), so completion order remains valid. *)
type kind = Htm_commit | Tl_commit | Stl_commit | Sw_commit | Plain_section

(** A committed section, materialised only as the culprit of a
    violation. *)
type record = {
  core : Lk_coherence.Types.core_id;
  end_time : int;  (** Simulated cycle of the serialization point. *)
  seq : int;  (** Tie-break: commit order. *)
  kind : kind;
  ops : op list;  (** Program order. *)
}

type violation = {
  culprit : record;
  at : op;  (** The read that observed an impossible value. *)
  expected : int;  (** What the model store held. *)
}

type t

val create : ?initial:(int * int) list -> cores:int -> unit -> t
(** One pending log per core id in [0, cores). [initial] seeds the
    model store (addresses default to 0). *)

(** {2 The pending section of one core} *)

val read : t -> core:Lk_coherence.Types.core_id -> addr:int -> value:int -> unit
val write : t -> core:Lk_coherence.Types.core_id -> addr:int -> value:int -> unit

val discard : t -> core:Lk_coherence.Types.core_id -> unit
(** Drop the pending log (abort, or a new section begins). *)

val commit :
  t -> core:Lk_coherence.Types.core_id -> end_time:int -> kind:kind -> unit
(** Replay the pending log against the model store, remember the first
    violation, and clear the log. Raises [Invalid_argument
    "Oracle.commit: end_time ..."] if [end_time] is below that of the
    previous commit. *)

val record :
  t ->
  core:Lk_coherence.Types.core_id ->
  end_time:int ->
  kind:kind ->
  ops:op list ->
  unit
(** A whole section at once: [discard], the [ops], then [commit]. *)

(** {2 Results} *)

val size : t -> int
(** Sections committed. *)

val count : t -> kind -> int
(** Sections committed with that kind. *)

val verify : t -> (unit, violation) result
(** The first violation seen, in commit order. *)

val pp_violation : Format.formatter -> violation -> unit
