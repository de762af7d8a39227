(* lint: allow printf — lookup and validation messages are built with
   [Printf.sprintf] once per run, while the system is chosen. *)

module Policy = Lk_htm.Policy

type kind = Cgl | Htm

type t = {
  name : string;
  kind : kind;
  recovery : bool;
  reject_policy : Policy.reject_policy;
  priority : Policy.priority_policy;
  htmlock : bool;
  switching : bool;
  retry : Policy.retry;
  lock : Policy.lock_impl;
  fallback : Policy.fallback_path;
  clock : Policy.clock_scheme;
  instrumentation : Policy.instrumentation;
}

let base =
  {
    name = "Baseline";
    kind = Htm;
    recovery = false;
    reject_policy = Policy.Wait_wakeup;
    priority = Policy.No_priority;
    htmlock = false;
    switching = false;
    retry = Policy.default_retry;
    lock = Policy.Ttas;
    fallback = Policy.Cgl_lock;
    clock = Policy.Gv1;
    instrumentation = Policy.Uninstrumented;
  }

let cgl = { base with name = "CGL"; kind = Cgl }

let baseline = base

let losa_safu =
  {
    base with
    name = "LosaTM-SAFU";
    recovery = true;
    reject_policy = Policy.Wait_wakeup;
    priority = Policy.Progression_based;
  }

let lockiller_rai =
  {
    base with
    name = "LockillerTM-RAI";
    recovery = true;
    reject_policy = Policy.Self_abort;
    priority = Policy.Insts_based;
  }

let lockiller_rri =
  {
    base with
    name = "LockillerTM-RRI";
    recovery = true;
    reject_policy = Policy.Retry_later 64;
    priority = Policy.Insts_based;
  }

let lockiller_rwi =
  {
    base with
    name = "LockillerTM-RWI";
    recovery = true;
    reject_policy = Policy.Wait_wakeup;
    priority = Policy.Insts_based;
  }

let lockiller_rwl =
  {
    base with
    name = "LockillerTM-RWL";
    recovery = true;
    reject_policy = Policy.Wait_wakeup;
    priority = Policy.No_priority;
    htmlock = true;
  }

let lockiller_rwil = { lockiller_rwi with name = "LockillerTM-RWIL"; htmlock = true }

let lockiller =
  { lockiller_rwil with name = "LockillerTM"; switching = true }

let all =
  [
    cgl;
    baseline;
    losa_safu;
    lockiller_rai;
    lockiller_rri;
    lockiller_rwi;
    lockiller_rwl;
    lockiller_rwil;
    lockiller;
  ]

let cgl_ticket = { cgl with name = "CGL-Ticket"; lock = Policy.Ticket }

let lockiller_rws =
  {
    lockiller_rwi with
    name = "LockillerTM-RWS";
    priority = Policy.Static_based;
  }

let extras = [ cgl_ticket; lockiller_rws ]

(* Hybrid-TM comparator family (see docs/HYBRID.md). All are built on
   [base] — requester-win, no recovery — so non-transactional accesses
   from software transactions always beat hardware holders, which is
   what makes the software path's publishes and gate writes effective
   kill mechanisms. *)

let hybrid_base = { base with fallback = Policy.Tl2 }

let sw_tl2 =
  {
    hybrid_base with
    name = "SW-TL2";
    retry = { Policy.default_retry with Policy.max_retries = 0 };
  }

let hytm_gv1 = { hybrid_base with name = "HyTM-GV1" }
let hytm_gv5 = { hybrid_base with name = "HyTM-GV5"; clock = Policy.Gv5 }

let hytm_rc =
  { hybrid_base with name = "HyTM-RC"; instrumentation = Policy.Read_check }

let hytm_md =
  {
    hybrid_base with
    name = "HyTM-MD";
    clock = Policy.Gv5;
    instrumentation = Policy.Access_check;
  }

let hybrid = [ sw_tl2; hytm_gv1; hytm_gv5; hytm_rc; hytm_md ]

let find name =
  let needle = String.lowercase_ascii name in
  List.find_opt
    (fun s -> String.lowercase_ascii s.name = needle)
    (all @ extras @ hybrid)

let lookup name =
  let names = List.map (fun s -> s.name) (all @ extras @ hybrid) in
  Option.to_result (find name)
    ~none:
      (Printf.sprintf "unknown system %S (expected one of: %s)" name
         (String.concat ", " names))

let validate t =
  if t.kind = Cgl then Ok ()
  else if t.lock = Policy.Ticket then
    Error "the ticket lock is only available for the CGL baseline"
  else if t.htmlock && not t.recovery then
    Error "HTMLock requires the recovery mechanism"
  else if t.switching && not t.htmlock then
    Error "switchingMode requires the HTMLock mechanism"
  else if t.retry.Policy.max_retries < 0 then Error "negative retry budget"
  else if t.fallback = Policy.Tl2 && (t.htmlock || t.switching) then
    Error "the TL2 fallback replaces the lock path: HTMLock/switchingMode \
           do not compose with it"
  else if t.instrumentation <> Policy.Uninstrumented && t.fallback <> Policy.Tl2
  then Error "HyTM instrumentation is only meaningful with the TL2 fallback"
  else if t.instrumentation = Policy.Read_check && t.clock <> Policy.Gv1 then
    Error "Read_check subscribes to clock writes, so it requires the eager \
           GV1 clock"
  else Ok ()

let pp ppf t =
  match t.kind with
  | Cgl -> Format.fprintf ppf "%s (coarse-grained locking)" t.name
  | Htm -> (
    match t.fallback with
    | Policy.Cgl_lock ->
      Format.fprintf ppf
        "%s (recovery=%b policy=%a priority=%a htmlock=%b switching=%b)"
        t.name t.recovery Policy.pp_reject_policy t.reject_policy
        Policy.pp_priority_policy t.priority t.htmlock t.switching
    | Policy.Tl2 ->
      Format.fprintf ppf "%s (fallback=tl2 clock=%a instr=%a retries=%d)"
        t.name Policy.pp_clock_scheme t.clock Policy.pp_instrumentation
        t.instrumentation t.retry.Policy.max_retries)
