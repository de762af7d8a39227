type core_id = int

let core_bits = 10
type line = int

type access = Read | Write | Rmw

let is_write = function Read -> false | Write | Rmw -> true

type mode = Htm_tx | Lock_tx | Non_tx

type party = int

let top_priority = max_int lsr 2

let party ~mode ~priority =
  if priority < 0 then invalid_arg "Types.party: negative priority";
  (Int.min priority top_priority lsl 2)
  lor match mode with Htm_tx -> 0 | Lock_tx -> 1 | Non_tx -> 2

let party_mode p = match p land 3 with 0 -> Htm_tx | 1 -> Lock_tx | _ -> Non_tx
let party_priority p = p lsr 2
let in_tx p = p land 3 <> 2
let non_tx_party = party ~mode:Non_tx ~priority:top_priority
let no_party = -1

type outcome = int

let granted = -2
let rejected_by_signatures = -1

type injected_fault =
  | Swmr_violation
  | Lost_wakeup
  | Dirty_commit

let fault_label = function
  | Swmr_violation -> "swmr-violation"
  | Lost_wakeup -> "lost-wakeup"
  | Dirty_commit -> "dirty-commit"
