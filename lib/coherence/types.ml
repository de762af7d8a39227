type core_id = int
type line = int

type access = Read | Write | Rmw

let is_write = function Read -> false | Write | Rmw -> true

type mode = Htm_tx | Lock_tx | Non_tx

type party = { mode : mode; priority : int }

let non_tx_party = { mode = Non_tx; priority = max_int }

type outcome = Granted | Rejected of { by : core_id option }

type injected_fault =
  | Swmr_violation
  | Lost_wakeup
  | Dirty_commit

let fault_label = function
  | Swmr_violation -> "swmr-violation"
  | Lost_wakeup -> "lost-wakeup"
  | Dirty_commit -> "dirty-commit"
