type reject_policy = Self_abort | Retry_later of int | Wait_wakeup

type priority_policy =
  | No_priority
  | Insts_based
  | Progression_based
  | Static_based

type lock_impl = Ttas | Ticket

type retry = { max_retries : int; backoff_base : int; backoff_cap : int }

let default_retry = { max_retries = 6; backoff_base = 32; backoff_cap = 2048 }

let backoff_delay r ~attempt =
  if attempt < 0 then invalid_arg "Policy.backoff_delay: negative attempt";
  let shift = Int.min attempt 20 in
  Int.min r.backoff_cap (r.backoff_base * (1 lsl shift))

let pp_reject_policy ppf = function
  | Self_abort -> Format.pp_print_string ppf "self-abort"
  | Retry_later n -> Format.fprintf ppf "retry-later(%d)" n
  | Wait_wakeup -> Format.pp_print_string ppf "wait-wakeup"

let pp_priority_policy ppf = function
  | No_priority -> Format.pp_print_string ppf "none"
  | Insts_based -> Format.pp_print_string ppf "insts-based"
  | Progression_based -> Format.pp_print_string ppf "progression-based"
  | Static_based -> Format.pp_print_string ppf "static"

type clock_scheme = Gv1 | Gv5

type fallback_path = Cgl_lock | Tl2

type instrumentation = Uninstrumented | Read_check | Access_check

let pp_clock_scheme ppf = function
  | Gv1 -> Format.pp_print_string ppf "gv1"
  | Gv5 -> Format.pp_print_string ppf "gv5"

let pp_instrumentation ppf = function
  | Uninstrumented -> Format.pp_print_string ppf "none"
  | Read_check -> Format.pp_print_string ppf "read-check"
  | Access_check -> Format.pp_print_string ppf "access-check"
