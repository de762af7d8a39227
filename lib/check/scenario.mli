(** Canned micro-scenarios for the correctness checkers.

    Each scenario is a tiny machine description — a system
    configuration, a 2–3 thread program over one or two cache lines,
    runtime cost overrides and the expected committed values — small
    enough for the bounded explorer to enumerate every event
    interleaving, yet together covering the interesting mechanisms:
    read-forward downgrades, conflict aborts, park/wake, the commit
    window, the fallback lock, CGL, HTMLock and the hybrid-TM
    software path.

    Bodies only touch byte addresses ≥ 256: the fallback/CGL lock
    lives at byte 0 (and xbegin subscribes to its line), the global
    version clock on line 2 and the software-mode gate on line 3, so
    data addresses must stay off the first four lines. *)

type t = {
  name : string;  (** Stable identifier ([find] key). *)
  descr : string;  (** One-line description for listings. *)
  sysconf : Lk_lockiller.Sysconf.t;
  program : Lk_cpu.Program.t;  (** One thread per core. *)
  costs : Lk_lockiller.Runtime.costs;
  expected : (int * int) list;
      (** Committed [(address, value)] pairs a correct run must end
          with, regardless of schedule. *)
  shards : int option;
      (** Directory shard count for the harness machine ([None] = one
          shard per tile, the historical machine). [Some n] with
          [n < cores] exercises the hierarchical multi-bank directory:
          several tiles share each LLC slice and request FIFO. *)
}

val read_forward : t
val incr_incr : t
val park_wake : t
val commit_race : t
(** The widened-commit-window scenario; the one that exposes
    [Dirty_commit]. *)

val trio : t

val sharded_trio : t
(** The two-shard hierarchical-directory scenario: three tiles, two
    LLC banks, traffic homed at both shards plus one cross-shard
    transaction. *)

val all : t list
(** Every scenario, in a stable order ([make check] runs these). *)

val find : string -> t option
(** Case-insensitive lookup by name. *)
