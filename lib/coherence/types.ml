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

let pp_access ppf a =
  Format.pp_print_string ppf
    (match a with Read -> "read" | Write -> "write" | Rmw -> "rmw")

let pp_mode ppf m =
  Format.pp_print_string ppf
    (match m with Htm_tx -> "htm" | Lock_tx -> "lock" | Non_tx -> "non-tx")

let pp_outcome ppf = function
  | Granted -> Format.pp_print_string ppf "granted"
  | Rejected { by = Some c } -> Format.fprintf ppf "rejected(by core %d)" c
  | Rejected { by = None } -> Format.pp_print_string ppf "rejected(by llc)"
