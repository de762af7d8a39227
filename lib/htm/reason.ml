type t =
  | Conflict_htm
  | Conflict_lock
  | Conflict_mutex
  | Conflict_non_tx
  | Capacity
  | Fault
  | Validation

let all =
  [
    Conflict_htm;
    Conflict_lock;
    Conflict_mutex;
    Conflict_non_tx;
    Capacity;
    Fault;
    Validation;
  ]

let index = function
  | Conflict_htm -> 0
  | Conflict_lock -> 1
  | Conflict_mutex -> 2
  | Conflict_non_tx -> 3
  | Capacity -> 4
  | Fault -> 5
  | Validation -> 6

let count = 7

let label = function
  | Conflict_htm -> "mc"
  | Conflict_lock -> "lock"
  | Conflict_mutex -> "mutex"
  | Conflict_non_tx -> "non_tran"
  | Capacity -> "of"
  | Fault -> "fault"
  | Validation -> "valid"

let classify_conflict ~aggressor_mode ~(line : Lk_coherence.Types.line) ~lock_line =
  match (aggressor_mode : Lk_coherence.Types.mode) with
  | Lk_coherence.Types.Lock_tx -> Conflict_lock
  | Lk_coherence.Types.Htm_tx -> Conflict_htm
  | Lk_coherence.Types.Non_tx ->
    if line = lock_line then Conflict_mutex else Conflict_non_tx

