(* End-to-end tests of the transactional stack: runtime + cores running
   real multi-threaded programs over the simulated coherence fabric.
   The central checks are atomicity (committed increments must add up
   under every system of Table II) and mechanism-specific behaviour
   (recovery rejects, HTMLock concurrency, switchingMode survival). *)

module Sim = Lk_engine.Sim
module Topology = Lk_mesh.Topology
module Network = Lk_mesh.Network
module Protocol = Lk_coherence.Protocol
module Shard = Lk_coherence.Shard
module Types = Lk_coherence.Types
module Store = Lk_htm.Store
module Reason = Lk_htm.Reason
module Policy = Lk_htm.Policy
module Txstate = Lk_htm.Txstate
module Sysconf = Lk_lockiller.Sysconf
module Runtime = Lk_lockiller.Runtime
module Signature = Lk_lockiller.Signature
module Wake_table = Lk_lockiller.Wake_table
module Arbiter = Lk_lockiller.Arbiter
module Program = Lk_cpu.Program
module Barrier = Lk_cpu.Barrier
module Accounting = Lk_cpu.Accounting
module Core = Lk_cpu.Core

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let lock_addr = 0

(* Data addresses: keep clear of the lock line. *)
let data i = 64 * (16 + i)

type run = {
  runtime : Runtime.t;
  store : Store.t;
  acct : Accounting.t;
  cycles : int;
  protocol : Protocol.t;
}

(* A small 4-core machine; caches sized so overflow is reachable but
   ordinary tests fit. *)
let run_program ?(cores = 4) ?(l1_sets = 16) ?(ledger = false) ~sysconf
    program =
  let sim = Sim.create () in
  let rows, cols =
    match cores with
    | 4 -> (2, 2)
    | 8 -> (2, 4)
    | 16 -> (4, 4)
    | 32 -> (4, 8)
    | 2 -> (1, 2)
    | _ -> invalid_arg "run_program: unsupported core count"
  in
  let net = Network.create (Topology.create ~rows ~cols) in
  let cfg =
    {
      Protocol.cores;
      l1_size = l1_sets * 64 * 2;
      l1_ways = 2;
      l1_hit_latency = 2;
      llc_size = cores * 64 * 64 * 8;
      llc_ways = 8;
      llc_hit_latency = 12;
      mem_latency = 100;
      exclusive_state = true;
      dir_pointers = None;
      dir_shards = 0;
      dir_hash = Shard.Mod;
    }
  in
  let protocol = Protocol.create ~sim ~network:net cfg in
  let store = Store.create ~cores in
  let runtime =
    Runtime.create ~protocol ~store ~sysconf ~lock_addr ()
  in
  if ledger then ignore (Runtime.enable_ledger runtime);
  let acct = Accounting.create ~cores in
  let done_count = ref 0 in
  let cpus =
    Array.init (Array.length program) (fun core ->
        Core.spawn ~runtime ~core ~accounting:acct
          ~on_done:(fun () -> incr done_count) ())
  in
  Array.iteri
    (fun core cpu -> Core.drive cpu (Program.cursor program.(core)))
    cpus;
  Sim.run sim;
  Array.iteri
    (fun i cpu ->
      if not (Core.finished cpu) then
        Alcotest.failf "core %d never finished (%d of %d txs completed)" i
          (Core.completed cpu)
          (List.length program.(i)))
    cpus;
  Protocol.check_invariants protocol;
  { runtime; store; acct; cycles = Sim.now sim; protocol }

(* N threads, each incrementing the same counter in M transactions. *)
let counter_program ~threads ~per_thread ~counter =
  Array.init threads (fun _ ->
      List.init per_thread (fun _ ->
          {
            Program.pre_compute = 5;
            ops = [ Program.Compute 3; Program.Incr counter; Program.Compute 2 ];
            post_compute = 5;
          }))

let all_htm_systems =
  List.filter (fun s -> s.Sysconf.kind = Sysconf.Htm) Sysconf.all

(* --- Atomicity under every system ------------------------------------ *)

let test_counter_conservation_all_systems () =
  List.iter
    (fun sysconf ->
      let program = counter_program ~threads:4 ~per_thread:10 ~counter:(data 0) in
      let r = run_program ~sysconf program in
      check_int
        (Printf.sprintf "%s: counter adds up" sysconf.Sysconf.name)
        40
        (Store.committed r.store (data 0)))
    Sysconf.all

let test_disjoint_counters_all_systems () =
  List.iter
    (fun sysconf ->
      (* each thread has a private counter: no conflicts at all *)
      let program =
        Array.init 4 (fun i ->
            List.init 8 (fun _ ->
                {
                  Program.pre_compute = 2;
                  ops = [ Program.Incr (data (i * 4)) ];
                  post_compute = 2;
                }))
      in
      let r = run_program ~sysconf program in
      for i = 0 to 3 do
        check_int
          (Printf.sprintf "%s: counter %d" sysconf.Sysconf.name i)
          8
          (Store.committed r.store (data (i * 4)))
      done;
      if sysconf.Sysconf.kind = Sysconf.Htm then
        check_bool
          (Printf.sprintf "%s: no aborts on disjoint data" sysconf.Sysconf.name)
          true
          (Runtime.commit_rate r.runtime = 1.0))
    Sysconf.all

let test_bank_transfers_conserve_money () =
  List.iter
    (fun sysconf ->
      let accounts = 6 in
      let initial = 100 in
      (* each thread moves money around a ring of accounts *)
      let program =
        Array.init 4 (fun t ->
            List.init 12 (fun j ->
                let from_ = (t + j) mod accounts in
                let to_ = (t + j + 1) mod accounts in
                {
                  Program.pre_compute = 3;
                  ops =
                    [
                      Program.Add (data from_, -7);
                      Program.Compute 4;
                      Program.Add (data to_, 7);
                    ];
                  post_compute = 3;
                }))
      in
      let sim_run () =
        let r = run_program ~sysconf program in
        let total =
          List.init accounts (fun i -> Store.committed r.store (data i))
          |> List.fold_left ( + ) 0
        in
        (* poke initial balances happens after run in this harness, so
           total should be zero-sum *)
        check_int
          (Printf.sprintf "%s: money conserved" sysconf.Sysconf.name)
          0 total
      in
      ignore initial;
      sim_run ())
    Sysconf.all

(* --- Best-effort semantics ------------------------------------------- *)

let test_baseline_contended_counter_commit_rate () =
  let program = counter_program ~threads:4 ~per_thread:10 ~counter:(data 0) in
  let r = run_program ~sysconf:Sysconf.baseline program in
  let rate = Runtime.commit_rate r.runtime in
  check_bool "some aborts happened under contention" true (rate < 1.0);
  check_bool "rate positive" true (rate > 0.0)

let test_recovery_improves_commit_rate () =
  let mk () = counter_program ~threads:4 ~per_thread:12 ~counter:(data 0) in
  let base = run_program ~sysconf:Sysconf.baseline (mk ()) in
  let rwi = run_program ~sysconf:Sysconf.lockiller_rwi (mk ()) in
  let base_rate = Runtime.commit_rate base.runtime in
  let rwi_rate = Runtime.commit_rate rwi.runtime in
  check_bool
    (Printf.sprintf "recovery commit rate (%.2f) >= baseline (%.2f)" rwi_rate
       base_rate)
    true
    (rwi_rate >= base_rate)

let test_fault_forces_fallback_baseline () =
  (* every transaction faults: HTM can never commit; everything must
     drain through the fallback path, and still add up *)
  let program =
    Array.init 2 (fun _ ->
        List.init 5 (fun _ ->
            {
              Program.pre_compute = 2;
              ops = [ Program.Incr (data 0); Program.Fault ];
              post_compute = 2;
            }))
  in
  let r = run_program ~sysconf:Sysconf.baseline program in
  check_int "counter adds up despite faults" 10
    (Store.committed r.store (data 0));
  let cs0 = Runtime.core_stats r.runtime 0 in
  check_bool "fault aborts recorded" true
    (cs0.Runtime.abort_reasons.(Reason.index Reason.Fault) > 0);
  check_bool "fallback used" true (cs0.Runtime.lock_commits > 0)

let test_overflow_forces_fallback_baseline () =
  (* a transaction whose write set exceeds the 2-way L1 set: lines k,
     k+sets, k+2*sets collide in one set *)
  let sets = 4 in
  let colliding i = 64 * (16 + (i * sets)) in
  let program =
    Array.init 2 (fun _ ->
        List.init 4 (fun _ ->
            {
              Program.pre_compute = 2;
              ops =
                [
                  Program.Incr (colliding 0);
                  Program.Incr (colliding 1);
                  Program.Incr (colliding 2);
                  Program.Incr (colliding 3);
                ];
              post_compute = 2;
            }))
  in
  let r = run_program ~cores:2 ~l1_sets:sets ~sysconf:Sysconf.baseline program in
  for i = 0 to 3 do
    check_int "colliding counter adds up" 8 (Store.committed r.store (colliding i))
  done;
  let of_aborts =
    List.init 2 (fun c ->
        (Runtime.core_stats r.runtime c).Runtime.abort_reasons.(Reason.index
                                                                  Reason.Capacity))
    |> List.fold_left ( + ) 0
  in
  check_bool "capacity aborts recorded" true (of_aborts > 0)

let test_switching_mode_survives_overflow () =
  let sets = 4 in
  let colliding i = 64 * (16 + (i * sets)) in
  let program =
    Array.init 2 (fun _ ->
        List.init 4 (fun _ ->
            {
              Program.pre_compute = 2;
              ops =
                List.init 4 (fun i -> Program.Incr (colliding i))
                @ [ Program.Compute 5 ];
              post_compute = 2;
            }))
  in
  let r =
    run_program ~cores:2 ~l1_sets:sets ~sysconf:Sysconf.lockiller program
  in
  for i = 0 to 3 do
    check_int "counter adds up" 8 (Store.committed r.store (colliding i))
  done;
  check_bool "switchingMode fired" true
    (Runtime.switches_granted r.runtime > 0);
  let stl =
    List.init 2 (fun c -> (Runtime.core_stats r.runtime c).Runtime.stl_commits)
    |> List.fold_left ( + ) 0
  in
  check_bool "some STL commits" true (stl > 0)

let test_faults_survive_in_htmlock_mode () =
  (* force the fallback immediately (max_retries = 0) under HTMLock:
     faults must not abort TL transactions *)
  let sysconf =
    {
      Sysconf.lockiller_rwil with
      Sysconf.retry = { Policy.default_retry with Policy.max_retries = 0 };
    }
  in
  let program =
    Array.init 2 (fun _ ->
        List.init 4 (fun _ ->
            {
              Program.pre_compute = 2;
              ops = [ Program.Incr (data 0); Program.Fault; Program.Incr (data 4) ];
              post_compute = 2;
            }))
  in
  let r = run_program ~sysconf program in
  check_int "first counter" 8 (Store.committed r.store (data 0));
  check_int "second counter" 8 (Store.committed r.store (data 4));
  let aborts =
    List.init 2 (fun c -> (Runtime.core_stats r.runtime c).Runtime.aborts)
    |> List.fold_left ( + ) 0
  in
  check_int "no aborts at all (TL survives faults)" 0 aborts

let test_htmlock_concurrent_progress () =
  (* thread 0 always takes the lock (retries exhausted), threads 1-3 run
     disjoint HTM transactions: under HTMLock nobody aborts *)
  let sysconf =
    {
      Sysconf.lockiller_rwil with
      Sysconf.retry = { Policy.default_retry with Policy.max_retries = 2 };
    }
  in
  let program =
    Array.init 4 (fun i ->
        if i = 0 then
          List.init 4 (fun _ ->
              {
                Program.pre_compute = 1;
                ops =
                  [ Program.Incr (data 0); Program.Fault; Program.Compute 50 ];
                post_compute = 1;
              })
        else
          List.init 10 (fun _ ->
              {
                Program.pre_compute = 1;
                ops = [ Program.Incr (data (i * 8)); Program.Compute 5 ];
                post_compute = 1;
              }))
  in
  let r = run_program ~sysconf program in
  check_int "lock-thread counter" 4 (Store.committed r.store (data 0));
  for i = 1 to 3 do
    check_int "htm-thread counter" 10 (Store.committed r.store (data (i * 8)))
  done;
  (* the disjoint HTM threads never conflict with the lock thread: no
     mutex aborts (no subscription) and no lock-conflict aborts *)
  for i = 1 to 3 do
    let cs = Runtime.core_stats r.runtime i in
    check_int "no mutex aborts under htmlock" 0
      cs.Runtime.abort_reasons.(Reason.index Reason.Conflict_mutex)
  done

let test_baseline_lemming_under_lock_traffic () =
  (* same setup as above but under plain best-effort HTM: the lock
     thread's acquisitions abort the HTM threads via the subscription
     (mutex aborts must appear) *)
  let sysconf =
    {
      Sysconf.baseline with
      Sysconf.retry = { Policy.default_retry with Policy.max_retries = 2 };
    }
  in
  let program =
    Array.init 4 (fun i ->
        if i = 0 then
          List.init 6 (fun _ ->
              {
                Program.pre_compute = 1;
                ops = [ Program.Incr (data 0); Program.Fault; Program.Compute 80 ];
                post_compute = 1;
              })
        else
          List.init 10 (fun _ ->
              {
                Program.pre_compute = 1;
                ops = [ Program.Incr (data (i * 8)); Program.Compute 300 ];
                post_compute = 1;
              }))
  in
  let r = run_program ~sysconf program in
  check_int "lock-thread counter" 6 (Store.committed r.store (data 0));
  let mutex_aborts =
    List.init 4 (fun c ->
        (Runtime.core_stats r.runtime c).Runtime.abort_reasons.(Reason.index
                                                                  Reason.Conflict_mutex))
    |> List.fold_left ( + ) 0
  in
  check_bool "subscription causes mutex aborts" true (mutex_aborts > 0)

let test_wait_wakeup_parks_and_wakes () =
  (* Long transactions: the rejector must still be running when the
     reject reply reaches the requester, otherwise the requester just
     retries instead of parking. *)
  let program =
    Array.init 4 (fun _ ->
        List.init 15 (fun _ ->
            {
              Program.pre_compute = 2;
              ops =
                [
                  Program.Incr (data 0);
                  Program.Compute 150;
                  Program.Incr (data 0);
                ];
              post_compute = 2;
            }))
  in
  let r = run_program ~sysconf:Sysconf.lockiller_rwi program in
  let parks =
    List.init 4 (fun c -> (Runtime.core_stats r.runtime c).Runtime.parks)
    |> List.fold_left ( + ) 0
  in
  check_bool "some parks under contention" true (parks > 0);
  check_bool "nobody left parked" true (Runtime.parked_cores r.runtime = []);
  check_int "counter adds up" 120 (Store.committed r.store (data 0))

let test_cgl_serialises () =
  let program = counter_program ~threads:4 ~per_thread:5 ~counter:(data 0) in
  let r = run_program ~sysconf:Sysconf.cgl program in
  check_int "counter adds up" 20 (Store.committed r.store (data 0));
  (* CGL must show lock time and waitlock time, no htm time *)
  let totals = Accounting.total r.acct in
  check_bool "lock time" true (List.assoc Accounting.Lock totals > 0);
  check_bool "no htm time" true (List.assoc Accounting.Htm totals = 0)

let test_accounting_covers_categories () =
  let program = counter_program ~threads:4 ~per_thread:10 ~counter:(data 0) in
  let r = run_program ~sysconf:Sysconf.baseline program in
  let totals = Accounting.total r.acct in
  check_bool "htm time recorded" true (List.assoc Accounting.Htm totals > 0);
  check_bool "non-tran time recorded" true
    (List.assoc Accounting.Non_tran totals > 0);
  check_bool "grand total positive" true (Accounting.grand_total r.acct > 0)

let test_deterministic_runs () =
  let mk () = counter_program ~threads:4 ~per_thread:8 ~counter:(data 0) in
  let a = run_program ~sysconf:Sysconf.lockiller (mk ()) in
  let b = run_program ~sysconf:Sysconf.lockiller (mk ()) in
  check_int "same cycle count" a.cycles b.cycles;
  check_int "same commits"
    (Runtime.core_stats a.runtime 0).Runtime.commits
    (Runtime.core_stats b.runtime 0).Runtime.commits

let test_no_watchdog_rescues_needed () =
  List.iter
    (fun sysconf ->
      let program = counter_program ~threads:4 ~per_thread:10 ~counter:(data 0) in
      let r = run_program ~sysconf program in
      check_int
        (Printf.sprintf "%s: no lost wakeups" sysconf.Sysconf.name)
        0
        (Runtime.watchdog_rescues r.runtime))
    all_htm_systems

let test_llc_eviction_capacity_abort () =
  (* Tiny LLC: filling it from one core back-invalidates another core's
     transactional line, which must abort with a capacity reason. *)
  let sysconf = Sysconf.baseline in
  let sim = Sim.create () in
  let net = Network.create (Topology.create ~rows:1 ~cols:2) in
  let cfg =
    {
      Protocol.cores = 2;
      l1_size = 64 * 64 * 2;
      l1_ways = 2;
      l1_hit_latency = 2;
      (* 2 banks x 2 sets x 2 ways = 8 lines total LLC *)
      llc_size = 2 * (2 * 64 * 2);
      llc_ways = 2;
      llc_hit_latency = 12;
      mem_latency = 100;
      exclusive_state = true;
      dir_pointers = None;
      dir_shards = 0;
      dir_hash = Shard.Mod;
    }
  in
  let protocol = Protocol.create ~sim ~network:net cfg in
  let store = Store.create ~cores:2 in
  let runtime = Runtime.create ~protocol ~store ~sysconf ~lock_addr ()
  in
  let acct = Accounting.create ~cores:2 in
  let program =
    [|
      (* core 0: one long transaction holding a couple of lines *)
      [
        {
          Program.pre_compute = 0;
          ops =
            [ Program.Incr (data 0); Program.Compute 4000; Program.Read (data 1) ];
          post_compute = 0;
        };
      ];
      (* core 1: plain traffic that blows through the tiny LLC *)
      [
        {
          Program.pre_compute = 20;
          ops = List.init 24 (fun i -> Program.Read (data (8 + i)));
          post_compute = 0;
        };
      ];
    |]
  in
  let cpus =
    Array.init (Array.length program) (fun core ->
        Core.spawn ~runtime ~core ~accounting:acct ~on_done:(fun () -> ()) ())
  in
  Array.iteri
    (fun core cpu -> Core.drive cpu (Program.cursor program.(core)))
    cpus;
  Sim.run sim;
  Protocol.check_invariants protocol;
  check_int "counter adds up" 1 (Store.committed store (data 0));
  let cs0 = Runtime.core_stats runtime 0 in
  check_bool "capacity abort via back-invalidation" true
    (cs0.Runtime.abort_reasons.(Reason.index Reason.Capacity) > 0)

let test_upgrade_race_stays_correct () =
  (* Several cores read the same line, then all try to upgrade: queued
     upgrades find their S copy gone and must degrade to plain write
     misses. The increments still add up. *)
  let program =
    Array.init 4 (fun _ ->
        List.init 10 (fun _ ->
            {
              Program.pre_compute = 1;
              ops = [ Program.Read (data 0); Program.Incr (data 0) ];
              post_compute = 1;
            }))
  in
  List.iter
    (fun sysconf ->
      let r = run_program ~sysconf program in
      check_int
        (sysconf.Sysconf.name ^ ": upgrade race conserved")
        40
        (Store.committed r.store (data 0)))
    [ Sysconf.cgl; Sysconf.baseline; Sysconf.lockiller ]

let test_signature_false_positive_is_safe () =
  (* The LLC check uses a Bloom signature: a false positive rejects an
     innocent request. Force the situation by spilling many lines in TL
     mode while another thread reads fresh addresses: at worst it slows
     down; it must never deadlock or corrupt. *)
  let sysconf =
    {
      Sysconf.lockiller_rwil with
      Sysconf.retry = { Policy.default_retry with Policy.max_retries = 0 };
    }
  in
  let program =
    [|
      [
        {
          Program.pre_compute = 0;
          ops = List.init 40 (fun i -> Program.Incr (data (i * 2)));
          post_compute = 0;
        };
      ];
      List.init 10 (fun j ->
          {
            Program.pre_compute = 2;
            ops = [ Program.Read (data (200 + j)); Program.Incr (data 300) ];
            post_compute = 2;
          });
    |]
  in
  let r = run_program ~cores:2 ~l1_sets:4 ~sysconf program in
  check_int "spiller conserved" 1 (Store.committed r.store (data 0));
  check_int "reader conserved" 10 (Store.committed r.store (data 300))

let test_ticket_lock_cgl () =
  let program = counter_program ~threads:4 ~per_thread:10 ~counter:(data 0) in
  let r = run_program ~sysconf:Sysconf.cgl_ticket program in
  check_int "counter adds up under ticket lock" 40
    (Store.committed r.store (data 0))

let test_static_priority_system () =
  let program = counter_program ~threads:4 ~per_thread:10 ~counter:(data 0) in
  let r = run_program ~sysconf:Sysconf.lockiller_rws program in
  check_int "counter adds up under static priority" 40
    (Store.committed r.store (data 0))

let test_ticket_lock_rejected_for_htm () =
  let bad = { Sysconf.baseline with Sysconf.lock = Policy.Ticket } in
  check_bool "validation rejects" true (Sysconf.validate bad <> Ok ())

(* --- Signature / wake table / arbiter units --------------------------- *)

let test_signature_no_false_negatives () =
  let s = Signature.create () in
  let lines = List.init 200 (fun i -> (i * 37) + 5) in
  List.iter (Signature.add s) lines;
  List.iter
    (fun l -> check_bool "member" true (Signature.test s l))
    lines

let test_signature_clear () =
  let s = Signature.create () in
  Signature.add s 42;
  check_bool "present" true (Signature.test s 42);
  Signature.clear s;
  check_bool "cleared" false (Signature.test s 42);
  check_bool "empty" true (Signature.is_empty s)

let test_signature_empty_rejects_nothing () =
  let s = Signature.create () in
  check_bool "fresh signature matches nothing" false (Signature.test s 0)

(* [llc_check] probes two signatures on every LLC request, so a
   membership test must not allocate. *)
let test_signature_test_no_alloc () =
  let s = Signature.create () in
  List.iter (Signature.add s) [ 3; 17; 4096 ];
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for l = 1 to 10_000 do
    if Signature.test s l then incr hits
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "%.0f words over 10k tests" words) true
    (words = 0.);
  check_bool "members found" true (!hits >= 2)

let prop_signature_conservative =
  QCheck.Test.make ~name:"signature has no false negatives" ~count:100
    QCheck.(list (int_bound 100_000))
    (fun lines ->
      let s = Signature.create () in
      List.iter (Signature.add s) lines;
      List.for_all (Signature.test s) lines)

let test_wake_table () =
  let w = Wake_table.create ~cores:4 in
  Wake_table.record w ~rejector:1 ~waiter:2;
  Wake_table.record w ~rejector:1 ~waiter:3;
  Wake_table.record w ~rejector:1 ~waiter:2;
  (* dedup *)
  Wake_table.record w ~rejector:1 ~waiter:1;
  (* self: no-op *)
  check_int "pending" 2 (Wake_table.pending w);
  Alcotest.(check (list int)) "drain" [ 2; 3 ] (Wake_table.drain w ~rejector:1);
  check_int "empty after drain" 0 (Wake_table.pending w)

let test_arbiter () =
  let a = Arbiter.create () in
  check_bool "acquire" true (Arbiter.try_acquire a 1);
  check_bool "reacquire idempotent" true (Arbiter.try_acquire a 1);
  check_bool "other denied" false (Arbiter.try_acquire a 2);
  Arbiter.release a 1;
  check_bool "after release" true (Arbiter.try_acquire a 2);
  Alcotest.check_raises "bad release"
    (Invalid_argument "Arbiter.release: caller does not hold the authorization")
    (fun () -> Arbiter.release a 1)

let test_sysconf_validation () =
  List.iter
    (fun s ->
      match Sysconf.validate s with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s invalid: %s" s.Sysconf.name msg)
    Sysconf.all;
  let bad = { Sysconf.baseline with Sysconf.htmlock = true } in
  check_bool "htmlock without recovery rejected" true
    (Sysconf.validate bad <> Ok ());
  check_bool "find by name" true
    (Sysconf.find "lockillertm" = Some Sysconf.lockiller)

let test_barrier_unit () =
  let sim = Sim.create () in
  let b = Barrier.create ~parties:3 in
  let released = ref 0 in
  Barrier.wait b ~sim ~k:(fun () -> incr released);
  Barrier.wait b ~sim ~k:(fun () -> incr released);
  check_int "two parked" 2 (Barrier.waiting b);
  check_int "none released yet" 0 !released;
  Barrier.wait b ~sim ~k:(fun () -> incr released);
  Sim.run sim;
  check_int "all released" 3 !released;
  check_int "phase complete" 1 (Barrier.phases_completed b);
  (* reusable for the next phase *)
  Barrier.wait b ~sim ~k:(fun () -> incr released);
  check_int "parked again" 1 (Barrier.waiting b)

let test_barrier_phases_synchronise_threads () =
  (* 4 threads, barrier after every 2 txs: no thread may start tx 3
     before all finished tx 2. We verify via the oracle-free path:
     committed counter per phase must be a multiple of 2*threads at
     each barrier release. Simpler check: total still conserved and the
     barrier saw the right number of phases. *)
  let sim = Sim.create () in
  let net = Network.create (Topology.create ~rows:2 ~cols:2) in
  let cfg =
    {
      Protocol.cores = 4;
      l1_size = 16 * 64 * 2;
      l1_ways = 2;
      l1_hit_latency = 2;
      llc_size = 4 * 64 * 64 * 8;
      llc_ways = 8;
      llc_hit_latency = 12;
      mem_latency = 100;
      exclusive_state = true;
      dir_pointers = None;
      dir_shards = 0;
      dir_hash = Shard.Mod;
    }
  in
  let protocol = Protocol.create ~sim ~network:net cfg in
  let store = Store.create ~cores:4 in
  let runtime =
    Runtime.create ~protocol ~store ~sysconf:Sysconf.lockiller ~lock_addr ()
  in
  let acct = Accounting.create ~cores:4 in
  let b = Barrier.create ~parties:4 in
  let program = counter_program ~threads:4 ~per_thread:6 ~counter:(data 0) in
  let cpus =
    Array.init (Array.length program) (fun core ->
        Core.spawn ~runtime ~core ~accounting:acct ~on_done:(fun () -> ()) ())
  in
  Array.iteri
    (fun core cpu ->
      Core.drive ~barrier:(b, 2) cpu (Program.cursor program.(core)))
    cpus;
  Sim.run sim;
  check_int "counter adds up with barriers" 24 (Store.committed store (data 0));
  (* 6 txs / barrier every 2 = 2 mid-run phases (no barrier after the
     final transaction) *)
  check_int "two phases" 2 (Barrier.phases_completed b);
  check_int "nobody left parked" 0 (Barrier.waiting b)

let test_barrier_workloads_complete () =
  (* kmeans and genome now carry barrier phases; they must still run and
     conserve under every key system *)
  List.iter
    (fun name ->
      let w = Option.get (Lk_stamp.Suite.find name) in
      check_bool (name ^ " has phases") true
        (w.Lk_stamp.Workload.barrier_every <> None))
    [ "kmeans"; "kmeans+"; "genome" ]

let test_ledger_records_lifecycle () =
  let program = counter_program ~threads:4 ~per_thread:8 ~counter:(data 0) in
  let r = run_program ~ledger:true ~sysconf:Sysconf.lockiller program in
  let l = Option.get (Runtime.ledger r.runtime) in
  check_int "nothing dropped" 0 (Lk_engine.Ledger.dropped l);
  let count kind =
    let n = ref 0 in
    Lk_engine.Ledger.iter l (fun ~time:_ ~core:_ ~kind:k ~arg:_ ->
        if k = kind then incr n);
    !n
  in
  let sum = Runtime.total_stats r.runtime in
  check_int "every section committed" 32
    (sum.Runtime.commits + sum.Runtime.stl_commits + sum.Runtime.lock_commits);
  check_int "one xbegin per started attempt" sum.Runtime.starts
    (count Lk_engine.Ledger.Tx_begin);
  check_int "one commit record per HTM commit" sum.Runtime.commits
    (count Lk_engine.Ledger.Tx_commit);
  check_int "one abort record per abort" sum.Runtime.aborts
    (count Lk_engine.Ledger.Tx_abort)

let test_store_semantics () =
  let st = Store.create ~cores:2 in
  Store.poke st 100 7;
  check_int "poke/committed" 7 (Store.committed st 100);
  Store.write st ~core:0 ~speculative:true 100 9;
  check_int "buffered invisible" 7 (Store.committed st 100);
  check_int "own buffer visible" 9 (Store.read st ~core:0 ~speculative:true 100);
  check_int "other core unaffected" 7
    (Store.read st ~core:1 ~speculative:true 100);
  ignore (Store.discard st ~core:0);
  check_int "discard drops" 7 (Store.read st ~core:0 ~speculative:true 100);
  Store.write st ~core:0 ~speculative:true 100 11;
  ignore (Store.commit st ~core:0);
  check_int "commit publishes" 11 (Store.committed st 100)

let () =
  Alcotest.run "runtime"
    [
      ( "atomicity",
        [
          Alcotest.test_case "shared counter, all systems" `Quick
            test_counter_conservation_all_systems;
          Alcotest.test_case "disjoint counters, all systems" `Quick
            test_disjoint_counters_all_systems;
          Alcotest.test_case "bank transfers conserve" `Quick
            test_bank_transfers_conserve_money;
        ] );
      ( "best-effort",
        [
          Alcotest.test_case "contention causes aborts" `Quick
            test_baseline_contended_counter_commit_rate;
          Alcotest.test_case "recovery >= baseline commit rate" `Quick
            test_recovery_improves_commit_rate;
          Alcotest.test_case "faults fall back" `Quick
            test_fault_forces_fallback_baseline;
          Alcotest.test_case "overflow falls back" `Quick
            test_overflow_forces_fallback_baseline;
          Alcotest.test_case "lemming via subscription" `Quick
            test_baseline_lemming_under_lock_traffic;
        ] );
      ( "lockiller-mechanisms",
        [
          Alcotest.test_case "switchingMode survives overflow" `Quick
            test_switching_mode_survives_overflow;
          Alcotest.test_case "faults survive in TL" `Quick
            test_faults_survive_in_htmlock_mode;
          Alcotest.test_case "htmlock concurrency" `Quick
            test_htmlock_concurrent_progress;
          Alcotest.test_case "wait-wakeup parks/wakes" `Quick
            test_wait_wakeup_parks_and_wakes;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "llc back-invalidation aborts" `Quick
            test_llc_eviction_capacity_abort;
          Alcotest.test_case "upgrade race" `Quick
            test_upgrade_race_stays_correct;
          Alcotest.test_case "signature false positives safe" `Quick
            test_signature_false_positive_is_safe;
          Alcotest.test_case "ticket-lock CGL" `Quick test_ticket_lock_cgl;
          Alcotest.test_case "static priority" `Quick
            test_static_priority_system;
          Alcotest.test_case "ticket lock HTM rejected" `Quick
            test_ticket_lock_rejected_for_htm;
        ] );
      ( "system",
        [
          Alcotest.test_case "cgl serialises" `Quick test_cgl_serialises;
          Alcotest.test_case "accounting categories" `Quick
            test_accounting_covers_categories;
          Alcotest.test_case "deterministic" `Quick test_deterministic_runs;
          Alcotest.test_case "no watchdog rescues" `Quick
            test_no_watchdog_rescues_needed;
        ] );
      ( "components",
        [
          Alcotest.test_case "signature membership" `Quick
            test_signature_no_false_negatives;
          Alcotest.test_case "signature clear" `Quick test_signature_clear;
          Alcotest.test_case "signature empty" `Quick
            test_signature_empty_rejects_nothing;
          Alcotest.test_case "signature test no alloc" `Quick
            test_signature_test_no_alloc;
          QCheck_alcotest.to_alcotest prop_signature_conservative;
          Alcotest.test_case "wake table" `Quick test_wake_table;
          Alcotest.test_case "arbiter" `Quick test_arbiter;
          Alcotest.test_case "sysconf validation" `Quick
            test_sysconf_validation;
          Alcotest.test_case "store semantics" `Quick test_store_semantics;
          Alcotest.test_case "barrier unit" `Quick test_barrier_unit;
          Alcotest.test_case "barrier synchronises" `Quick
            test_barrier_phases_synchronise_threads;
          Alcotest.test_case "barrier workloads" `Quick
            test_barrier_workloads_complete;
          Alcotest.test_case "ledger lifecycle" `Quick
            test_ledger_records_lifecycle;
        ] );
    ]
