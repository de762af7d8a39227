(* Direct tests of the runtime's programming interface (the "ISA" level:
   xbegin/xend/hlbegin/hlend/ttest, memory operations, the spinlock) and
   of the public Lockiller facade. The suites in test_runtime.ml drive
   the same machinery through whole programs; here we pin down the
   low-level contracts one call at a time. *)

module Sim = Lk_engine.Sim
module Types = Lk_coherence.Types
module Topology = Lk_mesh.Topology
module Network = Lk_mesh.Network
module Protocol = Lk_coherence.Protocol
module Shard = Lk_coherence.Shard
module Store = Lk_htm.Store
module Txstate = Lk_htm.Txstate
module Oracle = Lk_htm.Oracle
module Sysconf = Lk_lockiller.Sysconf
module Runtime = Lk_lockiller.Runtime

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let lock_addr = 0
let addr = 64 * 20

let mk ?(sysconf = Sysconf.lockiller) () =
  let sim = Sim.create () in
  let net = Network.create (Topology.create ~rows:2 ~cols:2) in
  let proto = Protocol.create ~sim ~network:net
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
  let store = Store.create ~cores:4 in
  let rt = Runtime.create ~protocol:proto ~store ~sysconf ~lock_addr () in
  (sim, store, rt)

(* Run one sequential script against the runtime and drain the sim. *)
let drive sim k =
  k ();
  Sim.run sim

(* One core-level op whose completion runs [k]: a one-shot sink gets
   [Some] of the value read ([Runtime.op_value]), or [None] when the
   surrounding transaction died. *)
let op rt core what ~addr ~value k =
  Runtime.attach rt core (fun code ->
      Runtime.detach rt core;
      k
        (if code = Runtime.op_done then Some (Runtime.op_value rt core)
         else None));
  Runtime.op rt core what ~addr ~value

(* --- transactions ------------------------------------------------------ *)

let test_xbegin_xend_roundtrip () =
  let sim, store, rt = mk () in
  let committed = ref false in
  drive sim (fun () ->
      Runtime.xbegin rt 0 ~k:(function
        | `Busy -> Alcotest.fail "xbegin busy on idle machine"
        | `Started ->
          check_bool "mode htm" true (Runtime.ttest rt 0 = Txstate.Htm);
          op rt 0 Types.Write ~addr ~value:7 (fun _ ->
              (* speculative: not yet visible *)
              check_int "buffered" 0 (Store.committed store addr);
              Runtime.xend rt 0 ~k:(fun () ->
                  committed := true;
                  check_bool "idle after commit" true
                    (Runtime.ttest rt 0 = Txstate.Idle)))));
  check_bool "committed" true !committed;
  check_int "published" 7 (Store.committed store addr)

let test_fetch_add_returns_old_value () =
  let sim, store, rt = mk () in
  Store.poke store addr 41;
  let seen = ref (-1) in
  drive sim (fun () ->
      Runtime.xbegin rt 0 ~k:(fun _ ->
          op rt 0 Types.Rmw ~addr ~value:1 (function
            | Some v ->
              seen := v;
              Runtime.xend rt 0 ~k:(fun () -> ())
            | None -> Alcotest.fail "aborted")));
  check_int "old value" 41 !seen;
  check_int "incremented" 42 (Store.committed store addr)

let test_fault_kills_htm_only () =
  let sim, _store, rt = mk () in
  let died = ref false and survived = ref false in
  drive sim (fun () ->
      Runtime.xbegin rt 0 ~k:(fun _ ->
          Runtime.fault rt 0 ~k:(function
            | `Died ->
              died := true;
              check_bool "idle after fault abort" true
                (Runtime.ttest rt 0 = Txstate.Idle)
            | `Survived _ -> Alcotest.fail "HTM must not survive faults")));
  drive sim (fun () ->
      (* non-speculative execution survives *)
      Runtime.fault rt 1 ~k:(function
        | `Survived cost -> survived := cost > 0
        | `Died -> Alcotest.fail "idle mode died"));
  check_bool "died" true !died;
  check_bool "survived" true !survived

let test_hl_mode_roundtrip () =
  let sim, store, rt = mk () in
  let finished = ref false in
  drive sim (fun () ->
      Runtime.lock_acquire rt 0 ~k:(fun () ->
          Runtime.hlbegin rt 0 ~k:(fun () ->
              check_bool "tl mode" true (Runtime.ttest rt 0 = Txstate.Tl);
              op rt 0 Types.Write ~addr ~value:9 (fun _ ->
                  (* lock transactions write through *)
                  check_int "visible immediately" 9
                    (Store.committed store addr);
                  Runtime.fault rt 0 ~k:(function
                    | `Died -> Alcotest.fail "TL must survive faults"
                    | `Survived _ ->
                      Runtime.hlend rt 0 ~k:(fun () ->
                          Runtime.lock_release rt 0 ~k:(fun () ->
                              finished := true)))))));
  check_bool "finished" true !finished;
  check_bool "lock free" false (Runtime.lock_held rt)

let test_double_xbegin_rejected () =
  let sim, _store, rt = mk () in
  drive sim (fun () ->
      Runtime.xbegin rt 0 ~k:(fun _ ->
          Alcotest.check_raises "nested xbegin"
            (Invalid_argument "Runtime.xbegin: already in a transaction")
            (fun () -> Runtime.xbegin rt 0 ~k:(fun _ -> ()));
          Runtime.xend rt 0 ~k:(fun () -> ())))

let test_xend_outside_tx_rejected () =
  let _sim, _store, rt = mk () in
  Alcotest.check_raises "xend idle"
    (Invalid_argument "Runtime.xend: not in an HTM transaction") (fun () ->
      Runtime.xend rt 0 ~k:(fun () -> ()))

let test_baseline_xbegin_busy_when_locked () =
  let sim, _store, rt = mk ~sysconf:Sysconf.baseline () in
  let busy = ref false in
  drive sim (fun () ->
      Runtime.lock_acquire rt 1 ~k:(fun () ->
          Runtime.xbegin rt 0 ~k:(function
            | `Busy -> busy := true
            | `Started -> Alcotest.fail "subscription missed the held lock")));
  check_bool "busy reported" true !busy

let test_htmlock_xbegin_ignores_lock () =
  let sim, _store, rt = mk ~sysconf:Sysconf.lockiller_rwil () in
  let started = ref false in
  drive sim (fun () ->
      Runtime.lock_acquire rt 1 ~k:(fun () ->
          Runtime.xbegin rt 0 ~k:(function
            | `Started ->
              started := true;
              Runtime.xend rt 0 ~k:(fun () -> ())
            | `Busy -> Alcotest.fail "HTMLock must not subscribe")));
  check_bool "started despite held lock" true !started

let test_lock_mutual_exclusion () =
  let sim, _store, rt = mk () in
  let order = ref [] in
  drive sim (fun () ->
      Runtime.lock_acquire rt 0 ~k:(fun () ->
          order := `A0 :: !order;
          (* second acquirer must wait until release *)
          Runtime.lock_acquire rt 1 ~k:(fun () ->
              order := `A1 :: !order;
              Runtime.lock_release rt 1 ~k:(fun () -> ()));
          Sim.schedule sim ~delay:500 (fun () ->
              order := `R0 :: !order;
              Runtime.lock_release rt 0 ~k:(fun () -> ()))));
  Alcotest.(check bool)
    "acquire order respects the lock" true
    (List.rev !order = [ `A0; `R0; `A1 ])

let test_add_insts_feeds_priority () =
  let _sim, _store, rt = mk ~sysconf:Sysconf.lockiller_rwi () in
  let ctx = Runtime.ctx rt 0 in
  ctx.Txstate.mode <- Txstate.Htm;
  Runtime.add_insts rt 0 250;
  check_int "insts counted" 250 ctx.Txstate.insts;
  ctx.Txstate.mode <- Txstate.Idle

let test_priority_saturation () =
  let _sim, _store, rt = mk ~sysconf:Sysconf.lockiller_rwi () in
  let ctx = Runtime.ctx rt 0 in
  ctx.Txstate.mode <- Txstate.Htm;
  Runtime.add_insts rt 0 1_000_000;
  (* the priority rides a 16-bit bus field: it must saturate, and the
     coherence layer must still see a valid HTM party *)
  check_bool "insts huge" true (ctx.Txstate.insts = 1_000_000);
  ctx.Txstate.mode <- Txstate.Idle

let test_static_priority_stable_across_retries () =
  let sim, _store, rt = mk ~sysconf:Sysconf.lockiller_rws () in
  let ctx = Runtime.ctx rt 0 in
  let p1 = ref 0 and p2 = ref 0 and p3 = ref 0 in
  drive sim (fun () ->
      Runtime.xbegin rt 0 ~k:(fun _ ->
          p1 := ctx.Txstate.static_priority;
          (* simulated abort: retry of the same transaction *)
          Runtime.fault rt 0 ~k:(fun _ ->
              ctx.Txstate.attempt <- 1;
              Runtime.xbegin rt 0 ~k:(fun _ ->
                  p2 := ctx.Txstate.static_priority;
                  Runtime.xend rt 0 ~k:(fun () ->
                      (* a NEW transaction draws a fresh priority *)
                      ctx.Txstate.attempt <- 0;
                      Runtime.xbegin rt 0 ~k:(fun _ ->
                          p3 := ctx.Txstate.static_priority;
                          Runtime.xend rt 0 ~k:(fun () -> ())))))));
  check_bool "positive" true (!p1 > 0);
  check_int "stable across retries" !p1 !p2;
  check_bool "fresh draw for the next tx" true (!p3 <> !p1 || !p3 > 0)

(* --- facade ------------------------------------------------------------- *)

let test_facade_run_ok () =
  match
    Lockiller.run ~cores:4 ~scale:0.2 ~system:"Baseline" ~workload:"kmeans"
      ~threads:4 ()
  with
  | Ok r -> check_bool "cycles" true (r.Lk_sim.Runner.cycles > 0)
  | Error msg -> Alcotest.fail msg

let test_facade_unknown_names () =
  (match Lockiller.run ~system:"nope" ~workload:"kmeans" ~threads:2 () with
  | Error msg -> check_bool "mentions candidates" true (String.length msg > 20)
  | Ok _ -> Alcotest.fail "accepted bad system");
  match Lockiller.run ~system:"CGL" ~workload:"nope" ~threads:2 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad workload"

let test_facade_bad_threads_is_error () =
  match Lockiller.run ~cores:4 ~system:"CGL" ~workload:"kmeans" ~threads:9 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted thread overflow"

let test_facade_run_text () =
  let program =
    "thread\n  tx pre=1 post=1\n    incr 0x1000\nthread\n  tx pre=1 post=1\n    incr 0x1000\n"
  in
  (match Lockiller.run_text ~cores:4 ~system:"LockillerTM" ~program () with
  | Ok r -> check_int "two threads" 2 r.Lk_sim.Runner.threads
  | Error msg -> Alcotest.fail msg);
  match Lockiller.run_text ~cores:4 ~system:"CGL" ~program:"garbage" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage program"

let test_facade_lists () =
  check_int "nine systems" 9 (List.length Lockiller.systems);
  check_int "nine workloads" 9 (List.length Lockiller.workloads);
  check_bool "version" true (String.length Lockiller.version > 0)

let () =
  Alcotest.run "api"
    [
      ( "runtime-interface",
        [
          Alcotest.test_case "xbegin/xend" `Quick test_xbegin_xend_roundtrip;
          Alcotest.test_case "fetch_add" `Quick
            test_fetch_add_returns_old_value;
          Alcotest.test_case "fault semantics" `Quick test_fault_kills_htm_only;
          Alcotest.test_case "hlbegin/hlend" `Quick test_hl_mode_roundtrip;
          Alcotest.test_case "nested xbegin" `Quick test_double_xbegin_rejected;
          Alcotest.test_case "xend outside tx" `Quick
            test_xend_outside_tx_rejected;
          Alcotest.test_case "subscription busy" `Quick
            test_baseline_xbegin_busy_when_locked;
          Alcotest.test_case "htmlock no subscription" `Quick
            test_htmlock_xbegin_ignores_lock;
          Alcotest.test_case "lock mutual exclusion" `Quick
            test_lock_mutual_exclusion;
          Alcotest.test_case "add_insts" `Quick test_add_insts_feeds_priority;
          Alcotest.test_case "priority saturation" `Quick
            test_priority_saturation;
          Alcotest.test_case "static priority stable" `Quick
            test_static_priority_stable_across_retries;
        ] );
      ( "facade",
        [
          Alcotest.test_case "run ok" `Quick test_facade_run_ok;
          Alcotest.test_case "unknown names" `Quick test_facade_unknown_names;
          Alcotest.test_case "bad threads" `Quick
            test_facade_bad_threads_is_error;
          Alcotest.test_case "run_text" `Quick test_facade_run_text;
          Alcotest.test_case "lists" `Quick test_facade_lists;
        ] );
    ]
