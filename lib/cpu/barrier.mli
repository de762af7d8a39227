(** Sense-reversing thread barrier for phase-structured workloads.

    Several STAMP applications are barrier-phased (kmeans iterations,
    genome stages); the paper's execution-time breakdown lumps the wait
    into "non-tran and barrier". A barrier is created for a fixed party
    count; each party's [wait] parks its continuation until the last
    party arrives, which releases everyone (the continuations run at
    the release cycle). Reusable across any number of phases. *)

type t

val create : parties:int -> t
(** [parties] must be positive. *)

val wait : t -> sim:Lk_engine.Sim.t -> k:(unit -> unit) -> unit
(** Park until all parties have arrived in the current phase. The
    releasing arrival schedules every continuation at the current
    cycle. Calling [wait] more times than [parties] within one phase
    raises. *)

val waiting : t -> int
(** Parties currently parked (tests). *)

val phases_completed : t -> int
