(** Classic transactional-memory microbenchmarks, available alongside
    the STAMP suite (outside the paper's evaluation set) for quick
    experiments and demos. *)

val all : Workload.profile list
