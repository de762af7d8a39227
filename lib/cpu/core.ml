module Sim = Lk_engine.Sim
module Policy = Lk_htm.Policy
module Txstate = Lk_htm.Txstate
module Sysconf = Lk_lockiller.Sysconf
module Runtime = Lk_lockiller.Runtime
module Types = Lk_coherence.Types

(* A transaction waiting in the core's service queue. The body is a
   thunk, not an op list: under open-loop backlog the queue can grow
   long, and a thunk (a closure over a few ints and an RNG) keeps the
   queued footprint O(1) per entry no matter how large the transaction
   it will synthesise. *)
type pending = {
  gen : unit -> Program.transaction;
  notify : started:int -> unit;  (** fired at completion; [started] is
                                     the cycle service began. *)
}

type t = {
  core : Lk_coherence.Types.core_id;
  rt : Runtime.t;
  sim : Sim.t;
  acct : Accounting.t;
  on_done : unit -> unit;
  mutable finished : bool;
  mutable finish_time : int;
  mutable completed_txs : int;
  q : pending Queue.t;
  mutable busy : bool;  (** a transaction is currently in service *)
  mutable sealed : bool;  (** no further [submit]s will arrive *)
  (* The in-order core runs one step at a time, so each step keeps its
     state here and resumes through the runtime's per-core event sink
     ({!on_event}): the body's remaining ops, the epoch it watches (-1:
     none) and its continuation; the lock-free wait; a compute burst
     or a retry pause, with the category it is charged to. *)
  mutable ops : Program.op list;
  mutable epoch : int;
  mutable body_k : [ `Done | `Aborted ] -> unit;
  mutable polling : bool;
  mutable wait_k : unit -> unit;
  mutable wait_attempt : int;
  mutable wait_t0 : int;
  wait_retry : Policy.retry;
  mutable pause : int;
  mutable delay_k : unit -> unit;
  mutable delay_cat : Accounting.category;
  mutable delay_n : int;
}

(* The core's own event codes, past the runtime's. *)
let resume_code = Runtime.op_done + 1
let delay_code = Runtime.op_done + 2
let poll_code = Runtime.op_done + 3

let finished t = t.finished
let finish_time t = t.finish_time
let completed t = t.completed_txs

let now t = Sim.now t.sim

let account t cat cycles = Accounting.add t.acct ~core:t.core cat cycles

let nothing () = ()
let no_body (_ : [ `Done | `Aborted ]) = ()

(* Run [k] after [n] cycles charged to [cat]. *)
let delay t n cat k =
  t.delay_n <- n;
  t.delay_cat <- cat;
  t.delay_k <- k;
  Runtime.post t.rt ~delay:n t.core delay_code

let delayed t =
  let k = t.delay_k in
  t.delay_k <- nothing;
  account t t.delay_cat t.delay_n;
  k ()

(* Local compute: one instruction per cycle. *)
let compute t n cat k =
  if n <= 0 then k ()
  else begin
    Runtime.add_insts t.rt t.core n;
    delay t n cat k
  end

(* Execute a critical-section body. [epoch] is the transaction epoch to
   watch for asynchronous aborts ([None] for irrevocable / plain
   execution, which cannot abort). Completion reports [`Done] or
   [`Aborted]. *)
let rec exec_ops t ~epoch ops k =
  t.ops <- ops;
  t.epoch <- (match epoch with Some e -> e | None -> -1);
  t.body_k <- k;
  go t

and dead t =
  t.epoch >= 0 && (Runtime.ctx t.rt t.core).Txstate.epoch <> t.epoch

and finish_body t outcome =
  let k = t.body_k in
  t.body_k <- no_body;
  k outcome

and go t =
  match t.ops with
  | [] -> finish_body t `Done
  | op :: rest -> (
    t.ops <- rest;
    if dead t then finish_body t `Aborted
    else
      match (op : Program.op) with
      | Program.Compute n ->
        Runtime.add_insts t.rt t.core n;
        Runtime.post t.rt ~delay:(Int.max n 0) t.core resume_code
      | Program.Read addr -> Runtime.op t.rt t.core Types.Read ~addr ~value:0
      | Program.Write (addr, value) ->
        Runtime.op t.rt t.core Types.Write ~addr ~value
      | Program.Incr addr -> Runtime.op t.rt t.core Types.Rmw ~addr ~value:1
      | Program.Add (addr, delta) ->
        Runtime.op t.rt t.core Types.Rmw ~addr ~value:delta
      | Program.Fault ->
        Runtime.fault t.rt t.core ~k:(function
          | `Died -> finish_body t `Aborted
          | `Survived cost -> Runtime.post t.rt ~delay:cost t.core resume_code))

and resume t = if dead t then finish_body t `Aborted else go t

(* Spin (with backoff, polling through the coherence protocol) until
   the fallback lock reads free. Time spent is waiting-for-lock. *)
and wait_lock_free t k =
  t.wait_k <- k;
  t.wait_attempt <- 0;
  t.polling <- true;
  poll t

and poll t =
  t.wait_t0 <- now t;
  Runtime.op t.rt t.core Types.Read ~addr:(Runtime.lock_addr t.rt) ~value:0

and polled t =
  account t Accounting.Wait_lock (now t - t.wait_t0);
  if Runtime.lock_held t.rt then begin
    t.pause <- Policy.backoff_delay t.wait_retry ~attempt:t.wait_attempt;
    t.wait_attempt <- t.wait_attempt + 1;
    Runtime.post t.rt ~delay:t.pause t.core poll_code
  end
  else begin
    t.polling <- false;
    let k = t.wait_k in
    t.wait_k <- nothing;
    k ()
  end

(* Every event of the core arrives here: the end of an operation (a
   lock-free poll's read, or a body's op), or one of the core's own
   waits. *)
and on_event t code =
  if code = Runtime.op_done || code = Runtime.op_failed then begin
    if t.polling then polled t
    else if code = Runtime.op_done then go t
    else finish_body t `Aborted
  end
  else if code = resume_code then resume t
  else if code = delay_code then delayed t
  else begin
    account t Accounting.Wait_lock t.pause;
    poll t
  end

(* A failed attempt: its cycles since [t0] were wasted, the attempt
   counter moves on (to at least [at_least]), and [k] runs after the
   abort cleanup — the architectural penalty plus the software backoff
   of the retry strategy. *)
let retry_after_abort ?(at_least = 0) t ~t0 k =
  account t Accounting.Aborted (now t - t0);
  let costs = Runtime.costs t.rt in
  let retry = (Runtime.sysconf t.rt).Sysconf.retry in
  let ctx = Runtime.ctx t.rt t.core in
  ctx.Txstate.attempt <- Int.max (ctx.Txstate.attempt + 1) at_least;
  let fault_extra =
    match ctx.Txstate.pending_abort with
    | Some Lk_htm.Reason.Fault -> costs.Runtime.fault_abort_penalty
    | Some _ | None -> 0
  in
  let pause =
    costs.Runtime.abort_penalty + fault_extra
    + Policy.backoff_delay retry ~attempt:ctx.Txstate.attempt
  in
  delay t pause Accounting.Rollback k

(* A plain (non-speculative) critical section under the fallback lock:
   CGL's only path, and the fallback of the systems without HTMLock,
   which count it as a lock commit. *)
let plain_section t (tx : Program.transaction) ~lock_commit k =
  let w0 = now t in
  Runtime.lock_acquire t.rt t.core ~k:(fun () ->
      account t Accounting.Wait_lock (now t - w0);
      let b0 = now t in
      Runtime.plain_section_begin t.rt t.core;
      exec_ops t ~epoch:None tx.Program.ops (fun _ ->
          Runtime.plain_section_end t.rt t.core;
          Runtime.lock_release t.rt t.core ~k:(fun () ->
              if lock_commit then Runtime.note_lock_commit t.rt t.core;
              account t Accounting.Lock (now t - b0);
              k ())))

(* The fallback path: acquire the lock, then run either as an HTMLock
   lock transaction (TL) or as a plain non-speculative critical
   section. *)
let fallback t (tx : Program.transaction) k =
  if (Runtime.sysconf t.rt).Sysconf.htmlock then begin
    let w0 = now t in
    Runtime.lock_acquire t.rt t.core ~k:(fun () ->
        account t Accounting.Wait_lock (now t - w0);
        let a0 = now t in
        Runtime.hlbegin t.rt t.core ~k:(fun () ->
            account t Accounting.Wait_lock (now t - a0);
            let b0 = now t in
            exec_ops t ~epoch:None tx.Program.ops (fun _ ->
                Runtime.hlend t.rt t.core ~k:(fun () ->
                    Runtime.lock_release t.rt t.core ~k:(fun () ->
                        account t Accounting.Lock (now t - b0);
                        k ())))))
  end
  else plain_section t tx ~lock_commit:true k

(* One critical section under the HTM systems: try speculatively up to
   max_retries times, then fall back — to the lock ([Cgl_lock]) or to
   the TL2-style software path ([Tl2]). *)
let rec attempt t (tx : Program.transaction) k =
  let sysconf = Runtime.sysconf t.rt in
  let ctx = Runtime.ctx t.rt t.core in
  let tl2 = sysconf.Sysconf.fallback = Policy.Tl2 in
  if ctx.Txstate.attempt >= sysconf.Sysconf.retry.Policy.max_retries then
    if tl2 then software t tx k else fallback t tx k
  else begin
    let t0 = now t in
    Runtime.xbegin t.rt t.core ~k:(function
      | `Busy ->
        (* The fallback lock was held (or, under [Tl2], the software
           gate / commit flag was raised, or the transaction died
           during subscription): wasted attempt. Under the lock
           fallback, wait for the lock before retrying; under [Tl2]
           there is no lock to wait for — back off and retry. *)
        retry_after_abort t ~t0 (fun () ->
            if tl2 then attempt t tx k
            else wait_lock_free t (fun () -> attempt t tx k))
      | `Started ->
        let epoch = ctx.Txstate.epoch in
        exec_ops t ~epoch:(Some epoch) tx.Program.ops (function
          | `Aborted ->
            (* retry_strategy(xstatus): a fault cannot succeed on retry
               — go straight to the fallback path. A capacity overflow
               gets one more attempt (associativity pressure can be
               timing-dependent) and then falls back too. *)
            let max_retries = sysconf.Sysconf.retry.Policy.max_retries in
            retry_after_abort t ~t0 (fun () -> attempt t tx k)
              ~at_least:
                (match ctx.Txstate.pending_abort with
                | Some Lk_htm.Reason.Fault -> max_retries
                | Some Lk_htm.Reason.Capacity -> max_retries - 1
                | Some _ | None -> 0)
          | `Done -> (
            (* Listing 2: dispatch the release path on the extended
               ttest. *)
            match Runtime.ttest t.rt t.core with
            | Txstate.Stl ->
              Runtime.hlend t.rt t.core ~k:(fun () ->
                  account t Accounting.Switch_lock (now t - t0);
                  k ())
            | Txstate.Htm ->
              Runtime.xend t.rt t.core ~k:(fun () ->
                  if ctx.Txstate.epoch <> epoch then
                    (* killed during the commit window *)
                    retry_after_abort t ~t0 (fun () -> attempt t tx k)
                  else begin
                    account t Accounting.Htm (now t - t0);
                    k ()
                  end)
            | Txstate.Tl | Txstate.Idle | Txstate.Sw ->
              failwith "Core.attempt: unexpected mode at commit")))
  end

(* The TL2-style software path of the hybrid-TM comparators: read
   instrumented, writes buffered, commit-time lock + validate +
   publish. Software transactions cannot be killed by hardware, but
   their own reads and commits abort on locked slots, stale versions
   and failed validation — each such abort backs off and retries the
   software path (never the hardware one: a transaction that fell
   through to software stays there, the classic HyTM discipline). *)
and software t (tx : Program.transaction) k =
  let ctx = Runtime.ctx t.rt t.core in
  let t0 = now t in
  let retry_sw () = retry_after_abort t ~t0 (fun () -> software t tx k) in
  Runtime.swbegin t.rt t.core ~k:(fun () ->
      let epoch = ctx.Txstate.epoch in
      exec_ops t ~epoch:(Some epoch) tx.Program.ops (function
        | `Aborted -> retry_sw ()
        | `Done ->
          Runtime.sw_commit t.rt t.core ~k:(function
            | `Aborted -> retry_sw ()
            | `Committed ->
              account t Accounting.Sw (now t - t0);
              k ())))

let critical t (tx : Program.transaction) k =
  let sysconf = Runtime.sysconf t.rt in
  let ctx = Runtime.ctx t.rt t.core in
  let done_ () =
    ctx.Txstate.attempt <- 0;
    k ()
  in
  match sysconf.Sysconf.kind with
  | Sysconf.Cgl -> plain_section t tx ~lock_commit:false done_
  | Sysconf.Htm -> attempt t tx done_

(* The service loop: pop the next pending transaction, synthesise its
   body, run it through the pre-compute / critical section /
   post-compute pipeline, report completion, repeat until the queue
   drains. The core finishes when drained *and* sealed. *)
let rec pump t =
  if Queue.is_empty t.q then begin
    t.busy <- false;
    if t.sealed && not t.finished then begin
      t.finished <- true;
      t.finish_time <- now t;
      Runtime.detach t.rt t.core;
      t.on_done ()
    end
  end
  else begin
    t.busy <- true;
    let p = Queue.pop t.q in
    let started = now t in
    let tx = p.gen () in
    compute t tx.Program.pre_compute Accounting.Non_tran (fun () ->
        critical t tx (fun () ->
            compute t tx.Program.post_compute Accounting.Non_tran (fun () ->
                t.completed_txs <- t.completed_txs + 1;
                p.notify ~started;
                pump t)))
  end

let spawn ~runtime ~core ~accounting ~on_done () =
  let sim = Lk_coherence.Protocol.sim (Runtime.protocol runtime) in
  let t =
    {
      core;
      rt = runtime;
      sim;
      acct = accounting;
      on_done;
      finished = false;
      finish_time = 0;
      completed_txs = 0;
      q = Queue.create ();
      busy = false;
      sealed = false;
      ops = [];
      epoch = -1;
      body_k = no_body;
      polling = false;
      wait_k = nothing;
      wait_attempt = 0;
      wait_t0 = 0;
      wait_retry =
        { (Runtime.sysconf runtime).Sysconf.retry with
          Policy.backoff_base = 16;
          backoff_cap = 128;
        };
      pause = 0;
      delay_k = nothing;
      delay_cat = Accounting.Non_tran;
      delay_n = 0;
    }
  in
  Runtime.attach runtime core (on_event t);
  t

let submit t ~gen ~notify =
  if t.sealed then invalid_arg "Core.submit: stream already sealed";
  Queue.push { gen; notify } t.q;
  if not t.busy then pump t

let seal t =
  t.sealed <- true;
  if not t.busy then pump t

(* Closed loop: submit transaction i+1 from the completion of
   transaction i, so exactly one is queued or in service at a time.
   After every [every]-th transaction but the last, park at the
   barrier first; the wait is non-tran time ("non-tran and
   barrier"). *)
let drive ?barrier t { Program.length; next } =
  (match barrier with
  | Some (_, k) when k <= 0 ->
    invalid_arg "Core.drive: barrier interval must be positive"
  | Some _ | None -> ());
  let issued = ref 0 in
  let rec issue () =
    if !issued = length then seal t
    else begin
      incr issued;
      submit t ~gen:next ~notify
    end
  and notify ~started:_ =
    match barrier with
    | Some (b, every) when !issued mod every = 0 && !issued < length ->
      let t0 = now t in
      Barrier.wait b ~sim:t.sim ~k:(fun () ->
          account t Accounting.Non_tran (now t - t0);
          issue ())
    | Some _ | None -> issue ()
  in
  issue ()
