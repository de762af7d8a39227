module Sim = Lk_engine.Sim
module Stats = Lk_engine.Stats
module Ledger = Lk_engine.Ledger
module Net = Lk_mesh.Network
module Msg = Lk_mesh.Message
module Types = Lk_coherence.Types
module Addr = Lk_coherence.Addr
module Client = Lk_coherence.Client
module Protocol = Lk_coherence.Protocol
module L1 = Lk_coherence.L1_cache
module Store = Lk_htm.Store
module Policy = Lk_htm.Policy
module Reason = Lk_htm.Reason
module Txstate = Lk_htm.Txstate
module Oracle = Lk_htm.Oracle
module Sw_path = Lk_htm.Sw_path
module Global_clock = Lk_htm.Global_clock

type access_result = Ok of int | Tx_aborted

type costs = {
  begin_cost : int;
  commit_cost : int;
  abort_penalty : int;
  fault_abort_penalty : int;
  fault_cost : int;
}

let default_costs =
  {
    begin_cost = 3;
    commit_cost = 3;
    abort_penalty = 20;
    fault_abort_penalty = 350;
    fault_cost = 60;
  }

type core_stats = {
  mutable starts : int;
  mutable commits : int;
  mutable stl_commits : int;
  mutable lock_commits : int;
  mutable sw_commits : int;
  mutable aborts : int;
  abort_reasons : int array;
  mutable rejects_received : int;
  mutable parks : int;
  mutable attempts_at_commit : int;
      (* Sum over HTM commits of the attempts each needed (>= commits);
         attempts_at_commit / commits = the paper's wasted-work
         intuition in one number. *)
  mutable wasted : int;
      (* Cycles spent in attempts that aborted: at every abort, the
         distance from the attempt's begin. Always on (a handful of int
         stores per abort) so results never depend on whether the
         causal profiler was attached. *)
  wasted_by_reason : int array;
      (* [wasted] split by {!Lk_htm.Reason.index}. *)
}

type t = {
  proto : Protocol.t;
  sim : Sim.t;
  net : Net.t;
  store : Store.t;
  sysconf : Sysconf.t;
  costs : costs;
  lock_addr : int;
  lock_line : Types.line;
  ctxs : Txstate.t array;
  wake : Wake_table.t;
  arb : Arbiter.t;
  of_rd : Signature.t;
  of_wr : Signature.t;
  mutable sig_owner : Types.core_id option;
  (* A parked core resumes its access in flight through [h_go]. *)
  parked : bool array;
  pending_wake : bool array;
  (* The access each core has in flight (the in-order core issues one
     at a time), [acc_fields] ints per core: the line, the access kind,
     the epoch at issue, the reject retries so far, what to run when it
     ends ([k_*]), the address and value of the core-level operation
     and the TTAS lock's spin count. *)
  acc : int array;
  (* Per core, the closure a cold-path access or a lock acquisition
     ends with, and the core's event sink ({!attach}). *)
  conts : (bool -> unit) array;
  sinks : (int -> unit) array;
  mutable h_go : Sim.handler;  (* arg: core; retry the access *)
  mutable h_wake : Sim.handler;  (* arg: core *)
  mutable h_spin : Sim.handler;  (* arg: core; the TTAS lock's re-probe *)
  mutable h_core : Sim.handler;  (* arg: core and code; see [post] *)
  mutable h_begin : Sim.handler;  (* arg: core; xbegin's cost elapsed *)
  spin_retry : Policy.retry;  (* the TTAS lock's backoff *)
  mutable oracle : Oracle.t option;
  mutable ledger : Ledger.t option;
  (* Cycle at which each core acquired the fallback spinlock; -1 when
     not holding it. Feeds the lock-dwell counter. *)
  lock_held_since : int array;
  (* Cycle at which each core first attempted its current critical
     section (-1 outside one) and cycle of its last abort (-1 once the
     section commits): together they feed the always-on latency
     histograms below. *)
  section_start : int array;
  last_abort : int array;
  (* Cycle at which the core's *current attempt* began (every xbegin /
     hlbegin / swbegin, unlike [section_start] which spans retries);
     -1 outside one. Feeds the wasted-cycle accounting and the
     aggressor/age attribution packed into abort-edge ledger events. *)
  attempt_start : int array;
  (* Deliberate waiting inside the current attempt — reject backoff
     pauses and parked time — accumulated so the attempt age used for
     wasted-work accounting measures discarded *work*, not stall: a
     NACK-stalled requester that eventually dies wasted the cycles it
     spent computing, not the cycles it spent politely waiting.
     [attempt_stall] is the closed total; [stall_since] is the start of
     a wait still in progress (-1 when none), so aborts landing
     mid-wait subtract the elapsed portion too. *)
  attempt_stall : int array;
  stall_since : int array;
  (* Whether the core is inside a plain (lock-protected,
     non-transactional) section whose accesses the oracle logs. *)
  plain_section : bool array;
  (* TL2-style software fallback path (hybrid-TM comparators): per-core
     read/write sets, the striped lock table, and the live population
     count sampled by the telemetry gauge. *)
  sw : Sw_path.t;
  mutable sw_now : int;
  (* Mirror of the global version clock's committed word: the store
     copy is the authoritative, coherence-visible one, but the
     telemetry sampler reads the value every sample and its path must
     not allocate (a store lookup does). All advances go through
     [advance_clock], which keeps the two in sync. *)
  mutable clock_now : int;
  (* Deliberately broken variant for the checker-of-the-checker
     mutation tests; [None] in every real run. *)
  inject : Types.injected_fault option;
  per_core : core_stats array;
  stats : Stats.group;
  s_wakeups : Stats.counter;
  s_rescues : Stats.counter;
  s_switch_ok : Stats.counter;
  s_switch_denied : Stats.counter;
  s_spilled_lines : Stats.counter;
  s_lock_busy : Stats.counter;
  s_lock_dwell : Stats.counter;
  s_sw_aborts : Stats.counter;
  s_clock_adv : Stats.counter;
  (* Always-on log-linear histograms (array increments on commit-rate
     paths; no allocation, no measurable cost). *)
  d_tx_latency : Stats.hdr;
  d_retry_gap : Stats.hdr;
  d_lock_dwell : Stats.hdr;
}

let sysconf t = t.sysconf
let costs t = t.costs

let store t = t.store
let protocol t = t.proto
let ctx t core = t.ctxs.(core)
let lock_addr t = t.lock_addr
let core_stats t core = t.per_core.(core)
let stats t = t.stats
let wakeups t = Stats.value t.s_wakeups
let watchdog_rescues t = Stats.value t.s_rescues
let switches_granted t = Stats.value t.s_switch_ok
let switches_denied t = Stats.value t.s_switch_denied
let spilled_lines t = Stats.value t.s_spilled_lines
let lock_dwell_cycles t = Stats.value t.s_lock_dwell
let clock_advances t = Stats.value t.s_clock_adv

let empty_core_stats () =
  {
    starts = 0;
    commits = 0;
    stl_commits = 0;
    lock_commits = 0;
    sw_commits = 0;
    aborts = 0;
    abort_reasons = Array.make Reason.count 0;
    rejects_received = 0;
    parks = 0;
    attempts_at_commit = 0;
    wasted = 0;
    wasted_by_reason = Array.make Reason.count 0;
  }

let total_stats t =
  let sum = empty_core_stats () in
  let add_into dst src = Array.iteri (fun i n -> dst.(i) <- dst.(i) + n) src in
  Array.iter
    (fun cs ->
      sum.starts <- sum.starts + cs.starts;
      sum.commits <- sum.commits + cs.commits;
      sum.stl_commits <- sum.stl_commits + cs.stl_commits;
      sum.lock_commits <- sum.lock_commits + cs.lock_commits;
      sum.sw_commits <- sum.sw_commits + cs.sw_commits;
      sum.aborts <- sum.aborts + cs.aborts;
      add_into sum.abort_reasons cs.abort_reasons;
      sum.rejects_received <- sum.rejects_received + cs.rejects_received;
      sum.parks <- sum.parks + cs.parks;
      sum.attempts_at_commit <- sum.attempts_at_commit + cs.attempts_at_commit;
      sum.wasted <- sum.wasted + cs.wasted;
      add_into sum.wasted_by_reason cs.wasted_by_reason)
    t.per_core;
  sum

let parked_cores t =
  let out = ref [] in
  Array.iteri (fun c p -> if p then out := c :: !out) t.parked;
  List.rev !out

(* --- Checker introspection -------------------------------------------- *)

let arbiter_holder t = Arbiter.holder t.arb
let sig_owner t = t.sig_owner
let wake_waiters t ~rejector = Wake_table.waiters t.wake ~rejector
let wake_pending t = Wake_table.pending t.wake
let has_pending_wake t core = t.pending_wake.(core)
let is_parked t core = t.parked.(core)

let lock_holders t =
  let out = ref [] in
  Array.iteri
    (fun c since -> if since >= 0 then out := c :: !out)
    t.lock_held_since;
  List.rev !out

(* --- Telemetry introspection ------------------------------------------ *)

(* Integer phase codes sampled by [Lk_sim.Telemetry]. Every accessor
   below is allocation-free: the sampler runs them thousands of times
   per simulation and must not disturb the GC. *)

(* Indexed by phase code: the label and the one-letter glyph of
   `lockiller_sim top`'s strips. *)
let phases =
  [|
    ("non-tx", '.');
    ("htm", 'H');
    ("stl", 'S');
    ("lock", 'L');
    ("parked", 'p');
    ("aborting", 'a');
    ("sw", 'w');
  |]

let num_phases = Array.length phases

let phase_label c = fst phases.(c)
let phase_char c = snd phases.(c)

let phase_code t core =
  if t.parked.(core) then 4
  else if t.lock_held_since.(core) >= 0 then 3
  else begin
    let c = t.ctxs.(core) in
    match c.Txstate.mode with
    | Txstate.Tl | Txstate.Stl -> 2
    | Txstate.Htm -> (
      match c.Txstate.pending_abort with Some _ -> 5 | None -> 1)
    | Txstate.Sw -> 6
    | Txstate.Idle -> 0
  end

let holds_lock t core = t.lock_held_since.(core) >= 0

let arbiter_engaged t =
  match Arbiter.holder t.arb with Some _ -> true | None -> false

let sig_rd_population t = Signature.population t.of_rd
let sig_wr_population t = Signature.population t.of_wr
let tx_latency_hdr t = t.d_tx_latency
let retry_gap_hdr t = t.d_retry_gap
let lock_dwell_hdr t = t.d_lock_dwell

let commit_rate t =
  let s = total_stats t in
  if s.starts = 0 then 1.0
  else
    float_of_int (s.commits + s.stl_commits + s.sw_commits)
    /. float_of_int s.starts

let clock_value t = t.clock_now
let sw_population t = t.sw_now
let sw_path t = t.sw

let lock_held t =
  match t.sysconf.Sysconf.lock with
  | Policy.Ttas -> Store.committed t.store t.lock_addr <> 0
  | Policy.Ticket ->
    Store.committed t.store t.lock_addr
    <> Store.committed t.store (t.lock_addr + Addr.line_size)

(* --- Serializability oracle ------------------------------------------- *)

let enable_oracle t =
  let o = Oracle.create ~cores:(Array.length t.ctxs) () in
  t.oracle <- Some o;
  o

let oracle t = t.oracle

let enable_ledger ?capacity t =
  let l = Ledger.create ?capacity t.sim in
  t.ledger <- Some l;
  Protocol.set_ledger t.proto l;
  Store.set_ledger t.store l;
  l

let ledger t = t.ledger

(* One branch when the ledger is off, an allocation-free four-word
   write when it is on. *)
let emit t core kind ~arg =
  match t.ledger with
  | None -> ()
  | Some l -> Ledger.emit l ~core kind ~arg

(* The oracle sees every access inside a critical section except those
   to the fallback lock's own line. *)
let logged t core addr =
  (t.plain_section.(core) || Txstate.in_critical t.ctxs.(core))
  && Addr.line_of_byte addr <> t.lock_line

let log_read t core addr value =
  match t.oracle with
  | Some o when logged t core addr -> Oracle.read o ~core ~addr ~value
  | Some _ | None -> ()

let log_write t core addr value =
  match t.oracle with
  | Some o when logged t core addr -> Oracle.write o ~core ~addr ~value
  | Some _ | None -> ()

let discard_log t core =
  match t.oracle with Some o -> Oracle.discard o ~core | None -> ()

let record_section t core kind =
  match t.oracle with
  | None -> ()
  | Some o -> Oracle.commit o ~core ~end_time:(Sim.now t.sim) ~kind

let plain_section_begin t core =
  t.plain_section.(core) <- true;
  discard_log t core

let plain_section_end t core =
  record_section t core Oracle.Plain_section;
  t.plain_section.(core) <- false

(* --- Priorities ------------------------------------------------------ *)

(* Priorities ride in a finite bus field (the paper suggests ARUSER);
   saturate at 16 bits like the hardware would. *)
let priority_field_max = 0xFFFF

let party_of t core =
  let c = t.ctxs.(core) in
  match c.Txstate.mode with
  | Txstate.Tl | Txstate.Stl ->
    Types.party ~mode:Types.Lock_tx ~priority:Types.top_priority
  (* Software transactions are plain parties: their optimistic reads
     and commit-time publishes beat hardware holders (requester-win),
     and nothing can conflict-abort them. *)
  | Txstate.Idle | Txstate.Sw -> Types.non_tx_party
  | Txstate.Htm ->
    let priority =
      match t.sysconf.Sysconf.priority with
      | Policy.No_priority -> 0
      | Policy.Insts_based -> Int.min c.Txstate.insts priority_field_max
      | Policy.Progression_based ->
        (* LosaTM tracks coarse execution phases, not an instruction
           count: quantise so that nearby transactions tie (and fall
           back to the core-id tie-break) — the unfairness the paper's
           insts-based priority avoids. *)
        Int.min (c.Txstate.progress lsr 3) priority_field_max
      | Policy.Static_based -> c.Txstate.static_priority
    in
    Types.party ~mode:Types.Htm_tx ~priority

(* Fig 4 arbitration: requester wins ties on lower core id. *)
let requester_beats_holder ~requester ~requester_party ~holder ~holder_party =
  let rp = Types.party_priority requester_party
  and hp = Types.party_priority holder_party in
  if rp <> hp then rp > hp else (requester : int) < holder

(* --- Wake-up machinery ----------------------------------------------- *)

let wake t core =
  if t.parked.(core) then begin
    t.parked.(core) <- false;
    Stats.incr t.s_wakeups;
    emit t core Ledger.Wake ~arg:0;
    Sim.post t.sim ~delay:0 t.h_go core
  end
  else
    (* The wake-up raced ahead of the reject reply; remember it so the
       park consumes it immediately. *)
    t.pending_wake.(core) <- true

let send_wakeups t core =
  let waiters = Wake_table.drain t.wake ~rejector:core in
  (* The injected lost-wakeup mutation silently drops the first waiter
     of every drain — the bug the no-lost-wakeup invariant and the
     quiescence watchdog exist to expose. *)
  let waiters =
    match t.inject with
    | Some Types.Lost_wakeup -> (
      match waiters with [] -> [] | _ :: rest -> rest)
    | Some _ | None -> waiters
  in
  List.iter
    (fun w ->
      let lat =
        Net.send ~now:(Sim.now t.sim) t.net ~src:core ~dst:w
          ~class_:Msg.Control
      in
      Sim.post t.sim ~delay:lat t.h_wake w)
    waiters

(* Park [core]'s access in flight until a wake-up retries it. *)
let park t core ~rejector_alive =
  if t.pending_wake.(core) then begin
    t.pending_wake.(core) <- false;
    Sim.post t.sim ~delay:1 t.h_go core
  end
  else if not rejector_alive then
    (* The rejecting transaction already finished; its wake-up will
       never come. Retry shortly instead of parking. *)
    Sim.post t.sim ~delay:16 t.h_go core
  else begin
    t.parked.(core) <- true;
    t.per_core.(core).parks <- t.per_core.(core).parks + 1;
    emit t core Ledger.Park ~arg:0
  end

(* --- Abort ------------------------------------------------------------ *)

(* Work cycles of the core's current attempt — elapsed time since
   xbegin minus the deliberate waits ([attempt_stall] plus any wait
   still open); 0 outside an attempt. The age half of every abort-edge
   attribution, and the increment the wasted-cycle counters take when
   the attempt dies. Excluding stall keeps the metric comparable
   across reject policies: a NACK-stall-and-retry system (LockillerTM)
   parks its requesters instead of killing work, and that waiting is
   the policy working, not work destroyed. *)
let attempt_age t core =
  let s = t.attempt_start.(core) in
  if s < 0 then 0
  else begin
    let now = Sim.now t.sim in
    let live =
      let w = t.stall_since.(core) in
      if w >= 0 then now - w else 0
    in
    let age = now - s - t.attempt_stall.(core) - live in
    if age > 0 then age else 0
  end

(* A deliberate wait opens here and closes at the top of the issue
   retry loop (or implicitly when the attempt dies and its stall state
   is reset): both ends are plain array stores, so the reject path
   stays allocation-free. *)
let stall_begin t core = t.stall_since.(core) <- Sim.now t.sim

let stall_end t core =
  let w = t.stall_since.(core) in
  if w >= 0 then begin
    t.attempt_stall.(core) <- t.attempt_stall.(core) + (Sim.now t.sim - w);
    t.stall_since.(core) <- -1
  end

let attempt_clock_reset t core =
  t.attempt_start.(core) <- -1;
  t.attempt_stall.(core) <- 0;
  t.stall_since.(core) <- -1

let attempt_clock_start t core =
  t.attempt_start.(core) <- Sim.now t.sim;
  t.attempt_stall.(core) <- 0;
  t.stall_since.(core) <- -1

(* The bookkeeping every abort shares, hardware ([Tx_abort]) or
   software ([Sw_abort]): the counts, the wasted cycles, the ledger
   record, then the dropped speculative state. [aggressor] is the core
   whose access killed the victim, or -1 for environmental aborts
   (capacity, faults, mutex subscriptions) with no single core to
   blame. *)
let record_abort t core reason ~aggressor kind =
  let cs = t.per_core.(core) in
  let r = Reason.index reason in
  let age = attempt_age t core in
  cs.aborts <- cs.aborts + 1;
  cs.abort_reasons.(r) <- cs.abort_reasons.(r) + 1;
  cs.wasted <- cs.wasted + age;
  cs.wasted_by_reason.(r) <- cs.wasted_by_reason.(r) + age;
  t.last_abort.(core) <- Sim.now t.sim;
  emit t core kind ~arg:(Ledger.pack_abort ~reason:r ~who:aggressor ~age);
  (* The discard's [Spec_discard] packs the same attempt age, so the
     attempt clock resets only after it. *)
  ignore (Store.discard t.store ~core);
  attempt_clock_reset t core;
  discard_log t core;
  Txstate.abort t.ctxs.(core) reason

let abort_core ?(aggressor = -1) t core reason =
  (match t.ctxs.(core).Txstate.mode with
  | Txstate.Tl | Txstate.Stl ->
    invalid_arg "Runtime.abort_core: lock transactions are irrevocable"
  | Txstate.Sw ->
    invalid_arg "Runtime.abort_core: software transactions self-abort"
  | Txstate.Htm | Txstate.Idle -> ());
  record_abort t core reason ~aggressor Ledger.Tx_abort;
  ignore (Protocol.abort_flush t.proto core);
  (* Transactions parked on us must not wait for a commit that will
     never come. *)
  send_wakeups t core;
  (* If the victim itself was parked, release it so it can observe the
     abort and restart. *)
  if t.parked.(core) then begin
    t.parked.(core) <- false;
    Sim.post t.sim ~delay:0 t.h_go core
  end

(* --- Issue with reject policies -------------------------------------- *)

let reject_reason t ~by =
  (* The overflow signatures belong to the lock transaction. *)
  if by < 0 then Reason.Conflict_lock
  else (
    match t.ctxs.(by).Txstate.mode with
    | Txstate.Tl | Txstate.Stl -> Reason.Conflict_lock
    | Txstate.Htm -> Reason.Conflict_htm
    | Txstate.Sw -> Reason.Conflict_non_tx
    | Txstate.Idle -> Reason.Conflict_htm)

let rejector_alive t ~by =
  if by >= 0 then Txstate.in_critical t.ctxs.(by) else t.sig_owner <> None

(* --- The access in flight ------------------------------------------------ *)

let speculative t core =
  t.ctxs.(core).Txstate.mode = Txstate.Htm

let progress_tick t core =
  let c = t.ctxs.(core) in
  c.Txstate.insts <- c.Txstate.insts + 1;
  if c.Txstate.mode = Txstate.Htm then
    c.Txstate.progress <- c.Txstate.progress + 1

let acc_fields = 8
let f_line = 0
let f_what = 1
let f_epoch = 2
let f_attempt = 3
let f_kont = 4
let f_addr = 5
let f_value = 6
let f_spin = 7
let[@inline] acc_get t core f = t.acc.((acc_fields * core) + f)
let[@inline] acc_set t core f v = t.acc.((acc_fields * core) + f) <- v

let what_code = function Types.Read -> 0 | Types.Write -> 1 | Types.Rmw -> 2
let what_of_code = function 0 -> Types.Read | 1 -> Types.Write | _ -> Types.Rmw

(* What runs when an access ends: [conts.(core)] ([k_cont]), the
   core-level operation's completion ([k_op]), or a step of the TTAS
   lock ([k_tas], [k_spin]). *)
let k_cont = 0
let k_op = 1
let k_tas = 2
let k_spin = 3

let idle (_ : bool) = ()
let detached (_ : int) = ()

(* The codes of a core's sink: an operation ended, granted or in a
   transaction that died; a core posts its own codes above these. *)
let op_done = 1
let op_failed = 0

(* A core's event is posted with the core id in the low [core_bits]
   bits and the code above them. *)
let core_bits = Types.core_bits

let post t ~delay core code =
  Sim.post t.sim ~delay t.h_core ((code lsl core_bits) lor core)

(* Issue a line-level access on behalf of [core], handling rejects per
   the configured policy; [kont] says what runs when it is granted
   (true) or the surrounding transaction died, possibly because of
   this access (false). Every step keeps its state in [acc], so a
   reject's backoff or park resumes through [h_go] with the core id. *)
let rec issue_as t core line what ~epoch kont =
  acc_set t core f_line line;
  acc_set t core f_what (what_code what);
  acc_set t core f_epoch epoch;
  acc_set t core f_attempt 0;
  acc_set t core f_kont kont;
  go t core

(* Every reject-wait resumes through here (backoff timers and park
   wake-ups both post [h_go]), so this one call closes any open stall
   span before the retry does more work. *)
and go t core =
  stall_end t core;
  let epoch = acc_get t core f_epoch in
  if t.ctxs.(core).Txstate.epoch <> epoch then complete t core false
  else
    Protocol.access t.proto ~core ~line:(acc_get t core f_line)
      ~what:(what_of_code (acc_get t core f_what)) ~epoch

and reply t core (outcome : Types.outcome) =
  let c = t.ctxs.(core) in
  if c.Txstate.epoch <> acc_get t core f_epoch then complete t core false
  else if outcome = Types.granted then complete t core true
  else begin
    let by = outcome in
    let attempt = acc_get t core f_attempt in
    let cs = t.per_core.(core) in
    cs.rejects_received <- cs.rejects_received + 1;
    emit t core Ledger.Reject
      ~arg:(Ledger.pack_attr ~who:by ~age:(attempt_age t core));
    let retry delay =
      acc_set t core f_attempt (attempt + 1);
      stall_begin t core;
      Sim.post t.sim ~delay t.h_go core
    in
    match c.Txstate.mode with
    | Txstate.Idle | Txstate.Sw ->
      (* Plain accesses cannot abort: bounded retry. *)
      retry (Policy.backoff_delay t.sysconf.Sysconf.retry ~attempt)
    | Txstate.Tl | Txstate.Stl ->
      (* Lock transactions carry top priority and are never rejected
         by arbitration; be robust anyway. *)
      retry 16
    | Txstate.Htm -> (
      match t.sysconf.Sysconf.reject_policy with
      | Policy.Self_abort ->
        abort_core t core (reject_reason t ~by) ~aggressor:by;
        complete t core false
      | Policy.Retry_later pause -> retry pause
      | Policy.Wait_wakeup ->
        acc_set t core f_attempt (attempt + 1);
        stall_begin t core;
        park t core ~rejector_alive:(rejector_alive t ~by))
  end

and complete t core granted =
  let kont = acc_get t core f_kont in
  if kont = k_op then finish_op t core granted
  else if kont = k_tas then on_tas t core granted
  else if kont = k_spin then on_spin t core granted
  else begin
    let k = t.conts.(core) in
    t.conts.(core) <- idle;
    k granted
  end

(* A core-level read, write or fetch-and-add was granted its line:
   apply it to the value layer and hand the core its completion. *)
and finish_op t core granted =
  if not granted then t.sinks.(core) op_failed
  else begin
    progress_tick t core;
    let addr = acc_get t core f_addr and speculative = speculative t core in
    (match what_of_code (acc_get t core f_what) with
    | Types.Read ->
      let v = Store.read t.store ~core ~speculative addr in
      log_read t core addr v;
      acc_set t core f_value v
    | Types.Write ->
      let value = acc_get t core f_value in
      Store.write t.store ~core ~speculative addr value;
      log_write t core addr value;
      acc_set t core f_value 0
    | Types.Rmw ->
      let v = Store.read t.store ~core ~speculative addr in
      let nv = v + acc_get t core f_value in
      Store.write t.store ~core ~speculative addr nv;
      log_read t core addr v;
      log_write t core addr nv;
      acc_set t core f_value v);
    t.sinks.(core) op_done
  end

(* The TTAS lock: test-and-set, then spin reading the lock line with a
   backoff much tighter than the transactional retry backoff, so a
   waiter re-probes within ~a miss latency of the release, as real
   spinlocks do. [conts.(core)] is the acquisition's continuation. *)
and test_and_set t core =
  issue_as t core t.lock_line Types.Rmw ~epoch:t.ctxs.(core).Txstate.epoch k_tas

and spin t core =
  issue_as t core t.lock_line Types.Read ~epoch:t.ctxs.(core).Txstate.epoch
    k_spin

and on_tas t core granted =
  if not granted then test_and_set t core
  else if Store.committed t.store t.lock_addr = 0 then begin
    Store.write t.store ~core ~speculative:false t.lock_addr 1;
    note_lock_acquired t core;
    let k = t.conts.(core) in
    t.conts.(core) <- idle;
    k true
  end
  else begin
    acc_set t core f_spin 0;
    spin t core
  end

and on_spin t core granted =
  if not granted then spin t core
  else if Store.committed t.store t.lock_addr = 0 then test_and_set t core
  else begin
    let attempt = acc_get t core f_spin in
    acc_set t core f_spin (attempt + 1);
    Sim.post t.sim ~delay:(Policy.backoff_delay t.spin_retry ~attempt) t.h_spin
      core
  end

and note_lock_acquired t core =
  t.lock_held_since.(core) <- Sim.now t.sim;
  emit t core Ledger.Lock_acquire ~arg:0

(* The cold-path form: [k] receives [`Granted] or [`Aborted]. *)
let issue t core line what ~epoch k =
  t.conts.(core) <- (fun granted -> k (if granted then `Granted else `Aborted));
  issue_as t core line what ~epoch k_cont

(* --- The coherence client -------------------------------------------- *)

let spill t core (view : L1.view) =
  (match t.sig_owner with
  | Some o when o = core -> ()
  | Some _ -> invalid_arg "Runtime.spill: signature owned by another core"
  | None -> t.sig_owner <- Some core);
  Stats.incr t.s_spilled_lines;
  emit t core Ledger.Spill ~arg:view.L1.line;
  if view.L1.tx_write then Signature.add t.of_wr view.L1.line
  else Signature.add t.of_rd view.L1.line

let arbitration_rtt t core =
  (* The centralised arbiter sits next to bank 0 (Section III-C allows
     a lightweight centralised module for distributed LLCs). *)
  (2 * Net.latency t.net ~src:core ~dst:0 ~class_:Msg.Control)
  + (Protocol.config t.proto).Protocol.llc_hit_latency

let on_tx_eviction t ~core ~(view : L1.view) =
  let c = t.ctxs.(core) in
  match c.Txstate.mode with
  | Txstate.Tl | Txstate.Stl ->
    spill t core view;
    Client.Spill { write = view.L1.tx_write; extra = 0 }
  | Txstate.Htm
    when t.sysconf.Sysconf.switching && not c.Txstate.switch_tried ->
    c.Txstate.switch_tried <- true;
    let rtt = arbitration_rtt t core in
    if Arbiter.try_acquire t.arb core then begin
      Stats.incr t.s_switch_ok;
      emit t core Ledger.Switch_granted ~arg:0;
      c.Txstate.mode <- Txstate.Stl;
      (* The transaction is irrevocable from here on: its speculative
         writes become real. *)
      ignore (Store.commit t.store ~core);
      spill t core view;
      Client.Spill { write = view.L1.tx_write; extra = rtt }
    end
    else begin
      Stats.incr t.s_switch_denied;
      emit t core Ledger.Switch_denied ~arg:0;
      abort_core t core Reason.Capacity;
      Client.Abort_tx rtt
    end
  | Txstate.Htm ->
    abort_core t core Reason.Capacity;
    Client.Abort_tx 0
  | Txstate.Idle | Txstate.Sw ->
    (* Defensive: stray tx bits without a live transaction (software
       transactions never set them). *)
    ignore (Protocol.abort_flush t.proto core);
    Client.Abort_tx 0

let resolve t ~requester ~requester_party ~holder ~holder_party =
  if Types.party_mode holder_party = Types.Lock_tx then Client.Reject_requester
  else if not t.sysconf.Sysconf.recovery then Client.Abort_holder
  else if
    requester_beats_holder ~requester ~requester_party ~holder ~holder_party
  then Client.Abort_holder
  else Client.Reject_requester

let llc_check t ~requester:_ ~requester_mode ~line ~write ~would_be_exclusive =
  if requester_mode = Types.Lock_tx then None
    (* only one lock transaction exists: it owns the signatures *)
  else if Signature.test t.of_wr line then Some Client.Reject_requester
  else if Signature.test t.of_rd line && (write || would_be_exclusive) then
    Some Client.Reject_requester
  else None

let on_reject t ~requester ~by =
  match t.sysconf.Sysconf.reject_policy with
  | Policy.Self_abort | Policy.Retry_later _ -> ()
  | Policy.Wait_wakeup -> (
    let rejector = if by >= 0 then Some by else t.sig_owner in
    match rejector with
    | Some r when Txstate.in_critical t.ctxs.(r) ->
      Wake_table.record t.wake ~rejector:r ~waiter:requester
    | Some _ | None -> ())

let client t =
  {
    Client.context =
      (fun ~core ~epoch ->
        let c = t.ctxs.(core) in
        if c.Txstate.epoch <> epoch then Types.no_party else party_of t core);
    party_of = (fun core -> party_of t core);
    resolve =
      (fun ~requester ~requester_party ~holder ~holder_party ->
        resolve t ~requester ~requester_party ~holder ~holder_party);
    abort =
      (fun ~victim ~aggressor ~aggressor_mode ~line ->
        let reason =
          Reason.classify_conflict ~aggressor_mode ~line
            ~lock_line:t.lock_line
        in
        abort_core t victim reason ~aggressor);
    tx_age = (fun core -> attempt_age t core);
    on_tx_eviction = (fun ~core ~view -> on_tx_eviction t ~core ~view);
    llc_check =
      (fun ~requester ~requester_mode ~line ~write ~would_be_exclusive ->
        llc_check t ~requester ~requester_mode ~line ~write
          ~would_be_exclusive);
    on_reject = (fun ~requester ~by -> on_reject t ~requester ~by);
  }

(* Listing 1's subscription (line 8) and each hybrid variant of it:
   read the word at [addr] transactionally, so that a later write to
   its line kills the transaction, and abort with [Conflict_mutex]
   (xabort(TME_LOCK_IS_ACQUIRED)) if the word reads [held]. [k] gets
   [ok], or [busy] when the transaction died. *)
let subscribe t core ~addr ~held ~epoch ~ok ~busy k =
  issue t core (Addr.line_of_byte addr) Types.Read ~epoch (function
    | `Aborted -> k busy
    | `Granted ->
      let c = t.ctxs.(core) in
      c.Txstate.insts <- c.Txstate.insts + 1;
      if held (Store.committed t.store addr) then begin
        Stats.incr t.s_lock_busy;
        abort_core t core Reason.Conflict_mutex;
        k busy
      end
      else k ok)

let nonzero word = word <> 0

(* [xbegin]'s cost has elapsed: report [`Busy] (false) if the attempt
   already died, else subscribe where the system needs it. *)
let begun t core =
  let k = t.conts.(core) in
  t.conts.(core) <- idle;
  let epoch = acc_get t core f_epoch in
  let sysconf = t.sysconf in
  if t.ctxs.(core).Txstate.epoch <> epoch then k false
  else if sysconf.Sysconf.htmlock then k true
  else
    match (sysconf.Sysconf.fallback, sysconf.Sysconf.instrumentation) with
    (* Best-effort idiom: subscribe to the fallback lock. *)
    | Policy.Cgl_lock, _ ->
      subscribe t core ~addr:t.lock_addr ~held:nonzero ~epoch ~ok:true
        ~busy:false k
    (* Mutual exclusion with the software path: the software-mode gate's
       population count plays the fallback lock's role. *)
    | Policy.Tl2, Policy.Uninstrumented ->
      subscribe t core ~addr:Sw_path.gate_addr ~held:nonzero ~epoch ~ok:true
        ~busy:false k
    (* Sample the global clock's line; a software writer commit in
       flight raises its flag. *)
    | Policy.Tl2, Policy.Read_check ->
      subscribe t core ~addr:Global_clock.flag_addr ~held:nonzero ~epoch
        ~ok:true ~busy:false k
    (* Access_check subscribes to each stamp slot as it goes
       ([hw_pre_access]). *)
    | Policy.Tl2, Policy.Access_check -> k true

(* --- Construction ----------------------------------------------------- *)

let create ?(costs = default_costs) ?inject_bug ~protocol:proto ~store ~sysconf
    ~lock_addr () =
  (match Sysconf.validate sysconf with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runtime.create: " ^ msg));
  let cores = (Protocol.config proto).Protocol.cores in
  let stats = Stats.group "runtime" in
  let sim = Protocol.sim proto in
  let t =
    {
      proto;
      sim;
      net = Protocol.network proto;
      store;
      sysconf;
      costs;
      lock_addr;
      lock_line = Addr.line_of_byte lock_addr;
      ctxs = Array.init cores Txstate.create;
      wake = Wake_table.create ~cores;
      arb = Arbiter.create ();
      of_rd = Signature.create ();
      of_wr = Signature.create ();
      sig_owner = None;
      parked = Array.make cores false;
      pending_wake = Array.make cores false;
      acc = Array.make (acc_fields * cores) 0;
      conts = Array.make cores idle;
      sinks = Array.make cores detached;
      h_go = Sim.unset;
      h_wake = Sim.unset;
      h_spin = Sim.unset;
      h_core = Sim.unset;
      h_begin = Sim.unset;
      spin_retry =
        {
          sysconf.Sysconf.retry with
          Policy.backoff_base = 32;
          backoff_cap = 1024;
        };
      oracle = None;
      ledger = None;
      lock_held_since = Array.make cores (-1);
      section_start = Array.make cores (-1);
      last_abort = Array.make cores (-1);
      attempt_start = Array.make cores (-1);
      attempt_stall = Array.make cores 0;
      stall_since = Array.make cores (-1);
      plain_section = Array.make cores false;
      sw = Sw_path.create ~cores;
      sw_now = 0;
      clock_now = 0;
      inject = inject_bug;
      per_core = Array.init cores (fun _ -> empty_core_stats ());
      stats;
      s_wakeups = Stats.counter stats "wakeups";
      s_rescues = Stats.counter stats "watchdog_rescues";
      s_switch_ok = Stats.counter stats "switches_granted";
      s_switch_denied = Stats.counter stats "switches_denied";
      s_spilled_lines = Stats.counter stats "spilled_lines";
      s_lock_busy = Stats.counter stats "lock_busy_aborts";
      s_lock_dwell = Stats.counter stats "lock_dwell_cycles";
      s_sw_aborts = Stats.counter stats "sw_aborts";
      s_clock_adv = Stats.counter stats "clock_advances";
      d_tx_latency = Stats.hdr stats "tx_latency";
      d_retry_gap = Stats.hdr stats "retry_gap";
      d_lock_dwell = Stats.hdr stats "lock_dwell";
    }
  in
  Protocol.set_client proto (client t);
  Protocol.set_reply proto (reply t);
  t.h_go <- Sim.handler sim ~name:"runtime.go" (fun core -> go t core);
  t.h_wake <- Sim.handler sim ~name:"runtime.wake" (fun core -> wake t core);
  t.h_spin <- Sim.handler sim ~name:"runtime.spin" (fun core -> spin t core);
  t.h_begin <-
    Sim.handler sim ~name:"runtime.xbegin" (fun core -> begun t core);
  t.h_core <-
    Sim.handler sim ~name:"runtime.core" (fun arg ->
        t.sinks.(arg land ((1 lsl core_bits) - 1)) (arg lsr core_bits));
  (* The value layer's [Spec_discard] packing wants the victim's
     attempt age at the moment the buffer is dropped. *)
  Store.set_age_of store (fun core -> attempt_age t core);
  (* The coherence-level mutation lives in the protocol; the others are
     handled here and ignored there. *)
  Protocol.set_inject_bug proto inject_bug;
  (* Lost-wakeup safety net: if the simulation drains while cores are
     parked, release them (and count it — a healthy run never needs
     this). *)
  Sim.on_quiescent t.sim (fun () ->
      Array.iteri
        (fun core parked ->
          if parked then begin
            t.parked.(core) <- false;
            Stats.incr t.s_rescues;
            Sim.post t.sim ~delay:1 t.h_go core
          end)
        t.parked);
  t

(* --- Programming interface ------------------------------------------- *)

let xbegin t core ~k =
  let c = t.ctxs.(core) in
  if c.Txstate.mode <> Txstate.Idle then
    invalid_arg "Runtime.xbegin: already in a transaction";
  Txstate.begin_htm c;
  emit t core Ledger.Tx_begin ~arg:c.Txstate.attempt;
  attempt_clock_start t core;
  (* First attempt opens the critical section for the latency
     histogram; retries record the abort-to-retry gap. *)
  if c.Txstate.attempt = 0 then t.section_start.(core) <- Sim.now t.sim
  else if t.last_abort.(core) >= 0 then begin
    Stats.record t.d_retry_gap (Sim.now t.sim - t.last_abort.(core));
    t.last_abort.(core) <- -1
  end;
  (* Static priorities are drawn once per transaction, before the first
     attempt, and survive retries (Section III-A: "determined before
     the transaction and remain unchanged"). *)
  if c.Txstate.attempt = 0 then
    c.Txstate.static_priority <-
      (* Any other hash would redraw the priorities, and so the results. *)
      (Hashtbl.hash (core, c.Txstate.tx_seq) land 0xFFFF) + 1 (* lint-ok *);
  discard_log t core;
  let cs = t.per_core.(core) in
  cs.starts <- cs.starts + 1;
  acc_set t core f_epoch c.Txstate.epoch;
  t.conts.(core) <- (fun started -> k (if started then `Started else `Busy));
  Sim.post t.sim ~delay:t.costs.begin_cost t.h_begin core

(* A critical section completed (HTM commit, hlend or plain fallback):
   close out the latency histogram sample. *)
let close_section t core =
  let ss = t.section_start.(core) in
  if ss >= 0 then begin
    Stats.record t.d_tx_latency (Sim.now t.sim - ss);
    t.section_start.(core) <- -1
  end;
  t.last_abort.(core) <- -1;
  attempt_clock_reset t core

(* The distinct [key line] over the lines of [core]'s buffered writes,
   last found first: the stamp slots a hardware commit bumps, the lines
   a software commit publishes. *)
let buffered_distinct t core key =
  let found = ref [] in
  Store.iter_buffered t.store ~core (fun addr _ ->
      let x = key (Addr.line_of_byte addr) in
      if not (List.mem x !found) then found := x :: !found);
  !found

let xend t core ~k =
  let c = t.ctxs.(core) in
  if c.Txstate.mode <> Txstate.Htm then
    invalid_arg "Runtime.xend: not in an HTM transaction";
  let epoch = c.Txstate.epoch in
  Sim.schedule t.sim ~delay:t.costs.commit_cost (fun () ->
      (* A conflict may still kill us during the commit window. The
         injected dirty-commit mutation skips exactly this guard, so a
         killed transaction publishes its commit anyway. *)
      let guard_ok =
        match t.inject with
        | Some Types.Dirty_commit -> true
        | Some _ | None -> c.Txstate.epoch = epoch
      in
      if not guard_ok then k ()
      else begin
        (* Instrumented hybrid schemes: a hardware commit must be
           visible to software read-set validation, so stamp the
           version slot of every written line with [clock + 1] —
           without advancing the clock (the GV5 lazy idiom; software
           readers catch the clock up). The stamps are poked, not
           issued: hardware-assisted stamping rides the commit's own
           write-backs. The lock bit is preserved and versions only
           ever grow. *)
        let written_slots =
          if
            t.sysconf.Sysconf.fallback = Policy.Tl2
            && t.sysconf.Sysconf.instrumentation <> Policy.Uninstrumented
          then buffered_distinct t core Sw_path.slot_of_line
          else []
        in
        ignore (Protocol.commit_flush t.proto core);
        ignore (Store.commit t.store ~core);
        (match written_slots with
        | [] -> ()
        | slots ->
          let wt = Global_clock.write_stamp t.store in
          List.iter
            (fun slot ->
              let a = Sw_path.meta_addr_of_slot slot in
              let old = Store.committed t.store a in
              let nv = Int.max (Sw_path.version_of old) wt in
              Store.poke t.store a (Sw_path.stamp_word nv lor (old land 1)))
            slots);
        record_section t core Oracle.Htm_commit;
        emit t core Ledger.Tx_commit ~arg:(c.Txstate.attempt + 1);
        let cs = t.per_core.(core) in
        cs.commits <- cs.commits + 1;
        cs.attempts_at_commit <-
          cs.attempts_at_commit + c.Txstate.attempt + 1;
        close_section t core;
        Txstate.finish c;
        send_wakeups t core;
        k ()
      end)

(* Enter TL mode: the core runs a lock transaction from here on. *)
let enter_tl t core k =
  let c = t.ctxs.(core) in
  c.Txstate.mode <- Txstate.Tl;
  c.Txstate.pending_abort <- None;
  Txstate.reset_attempt c;
  discard_log t core;
  if t.section_start.(core) < 0 then t.section_start.(core) <- Sim.now t.sim;
  attempt_clock_start t core;
  emit t core Ledger.Hl_begin ~arg:0;
  k ()

let hlbegin t core ~k =
  if t.ctxs.(core).Txstate.mode <> Txstate.Idle then
    invalid_arg "Runtime.hlbegin: already in a transaction";
  let rec acquire_authorization () =
    let rtt = arbitration_rtt t core in
    Sim.schedule t.sim ~delay:rtt (fun () ->
        if Arbiter.try_acquire t.arb core then enter_tl t core k
        else
          (* An STL transaction holds the authorization; it cannot be
             aborted, so wait for its hlend. *)
          Sim.schedule t.sim ~delay:64 acquire_authorization)
  in
  if t.sysconf.Sysconf.switching then acquire_authorization ()
  else
    Sim.schedule t.sim ~delay:t.costs.begin_cost (fun () ->
        ignore (Arbiter.try_acquire t.arb core);
        enter_tl t core k)

let hlend t core ~k =
  let c = t.ctxs.(core) in
  (match c.Txstate.mode with
  | Txstate.Tl | Txstate.Stl -> ()
  | Txstate.Htm | Txstate.Idle | Txstate.Sw ->
    invalid_arg "Runtime.hlend: not in HTMLock mode");
  let was_stl = c.Txstate.mode = Txstate.Stl in
  Sim.schedule t.sim ~delay:t.costs.commit_cost (fun () ->
      ignore (Protocol.commit_flush t.proto core);
      ignore (Store.commit t.store ~core);
      (match t.sig_owner with
      | Some o when o = core ->
        Signature.clear t.of_rd;
        Signature.clear t.of_wr;
        t.sig_owner <- None
      | Some _ | None -> ());
      (match Arbiter.holder t.arb with
      | Some h when h = core -> Arbiter.release t.arb core
      | Some _ | None -> ());
      record_section t core
        (if was_stl then Oracle.Stl_commit else Oracle.Tl_commit);
      emit t core Ledger.Hl_end ~arg:(if was_stl then 1 else 0);
      let cs = t.per_core.(core) in
      if was_stl then cs.stl_commits <- cs.stl_commits + 1
      else cs.lock_commits <- cs.lock_commits + 1;
      close_section t core;
      Txstate.finish c;
      send_wakeups t core;
      k ())

let ttest t core = t.ctxs.(core).Txstate.mode

(* --- Memory operations ------------------------------------------------ *)

(* --- TL2-style software fallback path --------------------------------- *)

let sw_gated t =
  t.sysconf.Sysconf.instrumentation = Policy.Uninstrumented

(* The single funnel for version-clock advances: the store word stays
   authoritative, [clock_now] mirrors it for the allocation-free
   telemetry gauge, and every effective advance is counted and
   ledgered. *)
let advance_clock t core ~to_ =
  if Global_clock.advance t.store ~to_ then begin
    t.clock_now <- to_;
    Stats.incr t.s_clock_adv;
    emit t core Ledger.Clock_advance ~arg:to_
  end

(* Enter (+1) or leave (-1) software mode at the gate (Uninstrumented
   only): RMW its population count. Entering kills every hardware
   transaction subscribed to the gate line; leaving runs after
   [Txstate] already left Sw, so the access is an ordinary plain one. *)
let sw_gate t core ~delta ~epoch k =
  if sw_gated t then
    issue t core Sw_path.gate_line Types.Rmw ~epoch (fun _ ->
        let g = Store.committed t.store Sw_path.gate_addr in
        Store.write t.store ~core ~speculative:false Sw_path.gate_addr
          (g + delta);
        k ())
  else k ()

(* Abort the running software transaction: restore the stamp word of
   every commit-time lock we hold, drop the read/write sets and the
   speculative buffer, then leave the gate. *)
let sw_abort ?(aggressor = -1) t core reason ~k =
  if t.ctxs.(core).Txstate.mode <> Txstate.Sw then
    invalid_arg "Runtime.sw_abort: not in a software transaction";
  Sw_path.iter_writes t.sw ~core (fun slot ->
      match Sw_path.owner t.sw slot with
      | Some o when o = core ->
        let a = Sw_path.meta_addr_of_slot slot in
        let old = Store.committed t.store a in
        Store.poke t.store a (Sw_path.stamp_word (Sw_path.version_of old));
        Sw_path.unlock t.sw ~core slot
      | Some _ | None -> ());
  Sw_path.reset t.sw core;
  Stats.incr t.s_sw_aborts;
  record_abort t core reason ~aggressor Ledger.Sw_abort;
  t.sw_now <- t.sw_now - 1;
  sw_gate t core ~delta:(-1) ~epoch:t.ctxs.(core).Txstate.epoch k

let swbegin t core ~k =
  let c = t.ctxs.(core) in
  if c.Txstate.mode <> Txstate.Idle then
    invalid_arg "Runtime.swbegin: already in a transaction";
  c.Txstate.mode <- Txstate.Sw;
  c.Txstate.pending_abort <- None;
  Txstate.reset_attempt c;
  Sw_path.reset t.sw core;
  discard_log t core;
  if t.section_start.(core) < 0 then t.section_start.(core) <- Sim.now t.sim
  else if t.last_abort.(core) >= 0 then begin
    Stats.record t.d_retry_gap (Sim.now t.sim - t.last_abort.(core));
    t.last_abort.(core) <- -1
  end;
  let cs = t.per_core.(core) in
  cs.starts <- cs.starts + 1;
  attempt_clock_start t core;
  t.sw_now <- t.sw_now + 1;
  let epoch = c.Txstate.epoch in
  let sample_clock () =
    issue t core Global_clock.line Types.Read ~epoch (fun _ ->
        c.Txstate.rv <- Global_clock.read t.store;
        emit t core Ledger.Sw_begin ~arg:c.Txstate.rv;
        k ())
  in
  Sim.schedule t.sim ~delay:t.costs.begin_cost (fun () ->
      sw_gate t core ~delta:1 ~epoch sample_clock)

let sw_read t core ~addr ~k =
  let c = t.ctxs.(core) in
  let epoch = c.Txstate.epoch in
  let line = Addr.line_of_byte addr in
  let slot = Sw_path.slot_of_line line in
  (* TL2 read: load the slot's stamp first; a locked or too-new stamp
     aborts the transaction (after catching the clock up, so the retry
     starts with a fresh enough read version). *)
  issue t core (Sw_path.meta_line line) Types.Read ~epoch (function
    | `Aborted -> k Tx_aborted
    | `Granted ->
      let word = Store.committed t.store (Sw_path.meta_addr_of_slot slot) in
      let version = Sw_path.version_of word in
      let holder = Sw_path.owner_id t.sw slot in
      let locked_by_other = Sw_path.locked word && holder <> core in
      let abort ~aggressor =
        sw_abort t core ~aggressor Reason.Validation
          ~k:(fun () -> k Tx_aborted)
      in
      if version > c.Txstate.rv then
        (* Clock catch-up — needed under GV5 by design, and under GV1
           whenever an instrumented hardware commit stamped
           [clock + 1] without advancing the clock. The stamping
           committer is long gone, so the edge is environmental. *)
        issue t core Global_clock.line Types.Rmw ~epoch (fun _ ->
            advance_clock t core ~to_:version;
            abort ~aggressor:(-1))
      else if locked_by_other then abort ~aggressor:holder
      else
        issue t core line Types.Read ~epoch (function
          | `Aborted -> k Tx_aborted
          | `Granted ->
            progress_tick t core;
            let v = Store.read t.store ~core ~speculative:true addr in
            Sw_path.note_read t.sw ~core ~slot ~version;
            log_read t core addr v;
            k (Ok v)))

let sw_write t core ~addr ~value =
  (* Deferred write: buffer the value and remember the slot; the
     coherence traffic (lock, publish, stamp) happens at commit. *)
  progress_tick t core;
  Store.write t.store ~core ~speculative:true addr value;
  Sw_path.note_write t.sw ~core ~slot:(Sw_path.slot_of_line (Addr.line_of_byte addr));
  log_write t core addr value;
  acc_set t core f_value 0;
  post t ~delay:1 core op_done

let sw_fetch_add t core ~addr ~delta ~k =
  sw_read t core ~addr ~k:(function
    | Tx_aborted -> k Tx_aborted
    | Ok v ->
      Store.write t.store ~core ~speculative:true addr (v + delta);
      Sw_path.note_write t.sw ~core
        ~slot:(Sw_path.slot_of_line (Addr.line_of_byte addr));
      log_write t core addr (v + delta);
      k (Ok v))

let sw_commit t core ~k =
  let c = t.ctxs.(core) in
  if c.Txstate.mode <> Txstate.Sw then
    invalid_arg "Runtime.sw_commit: not in a software transaction";
  let epoch = c.Txstate.epoch in
  let nwrites = Sw_path.writes t.sw ~core in
  Sw_path.sort_writes t.sw ~core;
  let wslots = ref [] in
  Sw_path.iter_writes t.sw ~core (fun s -> wslots := s :: !wslots);
  let wslots = List.rev !wslots in
  let read_check = t.sysconf.Sysconf.instrumentation = Policy.Read_check in
  let fail ~aggressor () =
    if read_check && nwrites > 0 then Global_clock.set_commit_flag t.store false;
    sw_abort t core ~aggressor Reason.Validation ~k:(fun () -> k `Aborted)
  in
  (* Phase 1 — commit-time write locks, in ascending slot order (the
     RMW on each stamp line also kills, under Access_check, every
     hardware transaction that touched the slot). *)
  let rec lock_phase remaining k2 =
    match remaining with
    | [] -> k2 ()
    | slot :: rest ->
      issue t core (Sw_path.meta_line_of_slot slot) Types.Rmw ~epoch
        (function
        | `Aborted -> fail ~aggressor:(-1) ()
        | `Granted ->
          if Sw_path.try_lock t.sw ~core slot then begin
            let a = Sw_path.meta_addr_of_slot slot in
            let old = Store.committed t.store a in
            Store.write t.store ~core ~speculative:false a
              (Sw_path.lock_word old);
            lock_phase rest k2
          end
          else
            (* Lost the lock race: the slot's current holder is the
               aggressor. *)
            fail ~aggressor:(Sw_path.owner_id t.sw slot) ())
  in
  (* Phase 2 — the write stamp. GV1 RMWs the clock (killing, under
     Read_check, every hardware transaction subscribed to it — and
     raising the commit-in-progress flag until publish); GV5 stamps
     [clock + 1] without any clock traffic. Read-only commits skip the
     clock entirely. *)
  let clock_phase k2 =
    if nwrites = 0 then k2 ~wt:0
    else
      match t.sysconf.Sysconf.clock with
      | Policy.Gv5 -> k2 ~wt:(Global_clock.write_stamp t.store)
      | Policy.Gv1 ->
        issue t core Global_clock.line Types.Rmw ~epoch (fun _ ->
            let wt = Global_clock.write_stamp t.store in
            if read_check then Global_clock.set_commit_flag t.store true
            else advance_clock t core ~to_:wt;
            k2 ~wt)
  in
  (* Phase 3 — validate, publish, stamp, unlock and record in one
     simulated instant: the record's end time is the serialization
     point, and every slot we wrote stays locked (aborting any reader)
     until that instant, so completion order stays a valid
     serialization order. The publish write-backs are charged (and
     kill hardware transactions still holding stale copies) after. *)
  let finish ~wt =
    let valid = ref true in
    (* First failing slot's lock holder, if one exists: the committer
       that invalidated us. A bare version mismatch (the writer already
       unlocked) stays environmental. *)
    let culprit = ref (-1) in
    Sw_path.iter_reads t.sw ~core (fun slot version ->
        let word = Store.committed t.store (Sw_path.meta_addr_of_slot slot) in
        let ok =
          Sw_path.version_of word = version
          && ((not (Sw_path.locked word))
             || Sw_path.owner_id t.sw slot = core)
        in
        if not ok then begin
          if !valid && !culprit < 0 then begin
            let o = Sw_path.owner_id t.sw slot in
            if o >= 0 && o <> core then culprit := o
          end;
          valid := false
        end);
    if not !valid then fail ~aggressor:!culprit ()
    else begin
      let published = buffered_distinct t core Fun.id in
      ignore (Store.commit t.store ~core);
      List.iter
        (fun slot ->
          let a = Sw_path.meta_addr_of_slot slot in
          let old = Store.committed t.store a in
          let nv = Int.max (Sw_path.version_of old) wt in
          Store.poke t.store a (Sw_path.stamp_word nv);
          Sw_path.unlock t.sw ~core slot)
        wslots;
      if read_check && nwrites > 0 then begin
        advance_clock t core ~to_:wt;
        Global_clock.set_commit_flag t.store false
      end;
      record_section t core Oracle.Sw_commit;
      emit t core Ledger.Sw_commit ~arg:wt;
      let cs = t.per_core.(core) in
      cs.sw_commits <- cs.sw_commits + 1;
      close_section t core;
      Sw_path.reset t.sw core;
      t.sw_now <- t.sw_now - 1;
      Txstate.finish c;
      let rec drain = function
        | [] ->
          sw_gate t core ~delta:(-1) ~epoch:c.Txstate.epoch (fun () ->
              k `Committed)
        | line :: rest ->
          issue t core line Types.Write ~epoch:c.Txstate.epoch (fun _ ->
              drain rest)
      in
      drain (List.rev published)
    end
  in
  Sim.schedule t.sim ~delay:t.costs.commit_cost (fun () ->
      lock_phase wslots (fun () -> clock_phase (fun ~wt -> finish ~wt)))

(* Instrumented hardware pre-access (the HyTM cost): one extra
   transactional load per access that both charges the instrumentation
   cycles and creates the coherence subscription the software path's
   commit-time kills rely on. *)
let hw_pre_access t core ~line ~is_read ~epoch k =
  match t.sysconf.Sysconf.instrumentation with
  | Policy.Read_check when is_read ->
    subscribe t core ~addr:Global_clock.flag_addr ~held:nonzero ~epoch
      ~ok:`Granted ~busy:`Aborted k
  | Policy.Access_check ->
    subscribe t core
      ~addr:(Sw_path.meta_addr_of_slot (Sw_path.slot_of_line line))
      ~held:Sw_path.locked ~epoch ~ok:`Granted ~busy:`Aborted k
  | Policy.Read_check | Policy.Uninstrumented -> k `Granted

(* A software operation's result, handed on like a hardware one's. *)
let sw_done t core = function
  | Ok v ->
    acc_set t core f_value v;
    t.sinks.(core) op_done
  | Tx_aborted -> t.sinks.(core) op_failed

(* A core-level read, write or fetch-and-add of [value] (the delta for
   [Rmw]) at [addr]; its completion goes to the core's attached
   continuation, its result to [f_value]. A hardware (or plain) access
   takes the pre-access subscription, if any, then the line access
   itself. *)
let op t core what ~addr ~value =
  acc_set t core f_addr addr;
  acc_set t core f_value value;
  if t.ctxs.(core).Txstate.mode = Txstate.Sw then begin
    match what with
    | Types.Read -> sw_read t core ~addr ~k:(sw_done t core)
    | Types.Write -> sw_write t core ~addr ~value
    | Types.Rmw -> sw_fetch_add t core ~addr ~delta:value ~k:(sw_done t core)
  end
  else begin
    let epoch = t.ctxs.(core).Txstate.epoch in
    let line = Addr.line_of_byte addr in
    if speculative t core && t.sysconf.Sysconf.fallback = Policy.Tl2 then
      hw_pre_access t core ~line ~is_read:(what <> Types.Write) ~epoch
        (function
        | `Aborted -> t.sinks.(core) op_failed
        | `Granted ->
          acc_set t core f_addr addr;
          acc_set t core f_value value;
          issue_as t core line what ~epoch k_op)
    else issue_as t core line what ~epoch k_op
  end

let attach t core k = t.sinks.(core) <- k
let detach t core = t.sinks.(core) <- detached

let op_value t core = acc_get t core f_value

let add_insts t core n =
  let c = t.ctxs.(core) in
  c.Txstate.insts <- c.Txstate.insts + n

let fault t core ~k =
  let c = t.ctxs.(core) in
  match c.Txstate.mode with
  | Txstate.Htm ->
    abort_core t core Reason.Fault;
    (* Resolving the exception runs the OS handler on this core, which
       pollutes the L1: the retry / fallback path restarts cold. *)
    ignore (Protocol.flush_core t.proto core);
    k `Died
  | Txstate.Tl | Txstate.Stl | Txstate.Idle | Txstate.Sw ->
    k (`Survived t.costs.fault_cost)

(* --- Spinlock --------------------------------------------------------- *)

(* Ticket-lock state lives on two separate lines: the ticket dispenser
   on the lock line, the now-serving counter on the next line. *)
let serving_addr t = t.lock_addr + Addr.line_size

let note_lock_released t core =
  let since = t.lock_held_since.(core) in
  if since >= 0 then begin
    Stats.add t.s_lock_dwell (Sim.now t.sim - since);
    Stats.record t.d_lock_dwell (Sim.now t.sim - since);
    t.lock_held_since.(core) <- -1
  end;
  emit t core Ledger.Lock_release ~arg:0

let lock_acquire_ttas t core ~k =
  t.conts.(core) <- (fun _ -> k ());
  test_and_set t core

let lock_acquire_ticket t core ~k =
  let c = t.ctxs.(core) in
  let serving_line = Addr.line_of_byte (serving_addr t) in
  let epoch = c.Txstate.epoch in
  (* draw a ticket *)
  issue t core t.lock_line Types.Rmw ~epoch (fun _ ->
      let my = Store.committed t.store t.lock_addr in
      Store.write t.store ~core ~speculative:false t.lock_addr (my + 1);
      let attempt = ref 0 in
      let rec spin () = issue t core serving_line Types.Read ~epoch on_read
      and on_read _ =
        if Store.committed t.store (serving_addr t) = my then begin
          note_lock_acquired t core;
          k ()
        end
        else begin
          let delay = Int.min 512 (16 * (1 + !attempt)) in
          incr attempt;
          Sim.schedule t.sim ~delay spin
        end
      in
      spin ())

let lock_acquire t core ~k =
  let c = t.ctxs.(core) in
  if c.Txstate.mode <> Txstate.Idle then
    invalid_arg "Runtime.lock_acquire: must run non-speculatively";
  match t.sysconf.Sysconf.lock with
  | Policy.Ttas -> lock_acquire_ttas t core ~k
  | Policy.Ticket -> lock_acquire_ticket t core ~k

let note_lock_commit t core =
  let cs = t.per_core.(core) in
  cs.lock_commits <- cs.lock_commits + 1;
  close_section t core

let lock_release t core ~k =
  let c = t.ctxs.(core) in
  let epoch = c.Txstate.epoch in
  match t.sysconf.Sysconf.lock with
  | Policy.Ttas ->
    issue t core t.lock_line Types.Write ~epoch (function
      | `Aborted | `Granted ->
        Store.write t.store ~core ~speculative:false t.lock_addr 0;
        note_lock_released t core;
        k ())
  | Policy.Ticket ->
    let serving_line = Addr.line_of_byte (serving_addr t) in
    issue t core serving_line Types.Write ~epoch (function
      | `Aborted | `Granted ->
        let s_addr = serving_addr t in
        Store.write t.store ~core ~speculative:false s_addr
          (Store.committed t.store s_addr + 1);
        note_lock_released t core;
        k ())
