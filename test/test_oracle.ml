(* Tests of the serializability oracle: the replay logic itself
   (including adversarial histories it must reject, agreement with a
   batch sort-and-replay reference, and bounded memory) and its
   integration with the runtime (every system's runs verify; logs are
   dropped on abort). *)

module Oracle = Lk_htm.Oracle
module Sim = Lk_engine.Sim
module Topology = Lk_mesh.Topology
module Network = Lk_mesh.Network
module Protocol = Lk_coherence.Protocol
module Shard = Lk_coherence.Shard
module Store = Lk_htm.Store
module Sysconf = Lk_lockiller.Sysconf
module Runtime = Lk_lockiller.Runtime
module Program = Lk_cpu.Program
module Accounting = Lk_cpu.Accounting
module Core = Lk_cpu.Core

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let ok t =
  match Oracle.verify t with
  | Ok () -> true
  | Error _ -> false

(* --- pure replay logic -------------------------------------------------- *)

let test_empty_history_verifies () =
  let t = Oracle.create ~cores:4 () in
  check_bool "empty ok" true (ok t)

let test_sequential_counter_verifies () =
  let t = Oracle.create ~cores:4 () in
  for i = 0 to 9 do
    Oracle.record t ~core:(i mod 2) ~end_time:(10 * i) ~kind:Oracle.Htm_commit
      ~ops:[ Oracle.R (64, i); Oracle.W (64, i + 1) ]
  done;
  check_bool "counter history ok" true (ok t)

let test_lost_update_detected () =
  let t = Oracle.create ~cores:4 () in
  (* both transactions read 0 and write 1: the second read of 0 is
     impossible in any serial order *)
  Oracle.record t ~core:0 ~end_time:10 ~kind:Oracle.Htm_commit
    ~ops:[ Oracle.R (64, 0); Oracle.W (64, 1) ];
  Oracle.record t ~core:1 ~end_time:20 ~kind:Oracle.Htm_commit
    ~ops:[ Oracle.R (64, 0); Oracle.W (64, 1) ];
  (match Oracle.verify t with
  | Ok () -> Alcotest.fail "lost update not detected"
  | Error v ->
    check_int "culprit is the later tx" 1 v.Oracle.culprit.Oracle.core;
    check_int "expected value" 1 v.Oracle.expected)

let test_dirty_read_detected () =
  let t = Oracle.create ~cores:4 () in
  (* tx 1 observes a value nobody committed *)
  Oracle.record t ~core:0 ~end_time:10 ~kind:Oracle.Htm_commit
    ~ops:[ Oracle.W (64, 5) ];
  Oracle.record t ~core:1 ~end_time:20 ~kind:Oracle.Plain_section
    ~ops:[ Oracle.R (64, 99) ];
  check_bool "dirty read rejected" false (ok t)

let test_read_own_write_ok () =
  let t = Oracle.create ~cores:4 () in
  Oracle.record t ~core:0 ~end_time:10 ~kind:Oracle.Tl_commit
    ~ops:[ Oracle.W (64, 7); Oracle.R (64, 7); Oracle.W (64, 8); Oracle.R (64, 8) ];
  check_bool "read-own-write ok" true (ok t)

let test_initial_values_respected () =
  let t = Oracle.create ~initial:[ (64, 42) ] ~cores:4 () in
  Oracle.record t ~core:0 ~end_time:5 ~kind:Oracle.Htm_commit
    ~ops:[ Oracle.R (64, 42) ];
  check_bool "initial seeded" true (ok t);
  let t2 = Oracle.create ~initial:[ (64, 42) ] ~cores:4 () in
  Oracle.record t2 ~core:0 ~end_time:5 ~kind:Oracle.Htm_commit
    ~ops:[ Oracle.R (64, 0) ];
  check_bool "stale zero rejected" false (ok t2)

let test_tie_break_by_recording_order () =
  let t = Oracle.create ~cores:4 () in
  (* same end time: recording order decides, and it is consistent *)
  Oracle.record t ~core:0 ~end_time:10 ~kind:Oracle.Htm_commit
    ~ops:[ Oracle.R (64, 0); Oracle.W (64, 1) ];
  Oracle.record t ~core:1 ~end_time:10 ~kind:Oracle.Htm_commit
    ~ops:[ Oracle.R (64, 1); Oracle.W (64, 2) ];
  check_bool "tied times replay in seq order" true (ok t);
  check_int "two records" 2 (Oracle.size t)

let test_interleaved_addresses () =
  let t = Oracle.create ~cores:4 () in
  Oracle.record t ~core:0 ~end_time:1 ~kind:Oracle.Htm_commit
    ~ops:[ Oracle.W (64, 1); Oracle.W (128, 10) ];
  Oracle.record t ~core:1 ~end_time:2 ~kind:Oracle.Stl_commit
    ~ops:[ Oracle.R (64, 1); Oracle.R (128, 10); Oracle.W (64, 2) ];
  Oracle.record t ~core:0 ~end_time:3 ~kind:Oracle.Htm_commit
    ~ops:[ Oracle.R (64, 2); Oracle.R (128, 10) ];
  check_bool "multi-address ok" true (ok t)

let prop_serial_histories_verify =
  (* build a random but genuinely serial history: transactions applied
     one after another against a model, reads recorded from the model *)
  QCheck.Test.make ~name:"serial histories always verify" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30)
              (pair (int_bound 7) (list_of_size Gen.(1 -- 5) (int_bound 3))))
    (fun txs ->
      let t = Oracle.create ~cores:4 () in
      let model = Hashtbl.create 16 in
      let get a = Option.value ~default:0 (Hashtbl.find_opt model a) in
      List.iteri
        (fun i (core, addrs) ->
          let ops =
            List.concat_map
              (fun a ->
                let addr = 64 * a in
                let v = get addr in
                Hashtbl.replace model addr (v + 1);
                [ Oracle.R (addr, v); Oracle.W (addr, v + 1) ])
              addrs
          in
          Oracle.record t ~core:(core mod 4) ~end_time:i
            ~kind:Oracle.Htm_commit ~ops)
        txs;
      ok t)

let prop_corrupted_read_detected =
  QCheck.Test.make ~name:"corrupting one observed read is detected" ~count:100
    QCheck.(pair (int_bound 19) (int_bound 8))
    (fun (corrupt_at, offset) ->
      let t = Oracle.create ~cores:4 () in
      for i = 0 to 19 do
        let read_value = if i = corrupt_at then i + 1 + offset else i in
        Oracle.record t ~core:0 ~end_time:i ~kind:Oracle.Htm_commit
          ~ops:[ Oracle.R (64, read_value); Oracle.W (64, i + 1) ]
      done;
      not (ok t))

(* --- online = batch ------------------------------------------------------ *)

(* The reference the online oracle replaces: keep every record, sort by
   (end_time, seq) at the end, replay against a fresh model. *)
let batch_verify ~initial records =
  let model = Hashtbl.create 64 in
  List.iter (fun (a, v) -> Hashtbl.replace model a v) initial;
  let value a = Option.value ~default:0 (Hashtbl.find_opt model a) in
  let ordered =
    List.stable_sort
      (fun (a : Oracle.record) (b : Oracle.record) ->
        compare (a.end_time, a.seq) (b.end_time, b.seq))
      records
  in
  let rec replay_ops r = function
    | [] -> Ok ()
    | (Oracle.R (a, v) as at) :: rest ->
      let expected = value a in
      if v <> expected then Error { Oracle.culprit = r; at; expected }
      else replay_ops r rest
    | Oracle.W (a, v) :: rest ->
      Hashtbl.replace model a v;
      replay_ops r rest
  in
  let rec go = function
    | [] -> Ok ()
    | r :: rest -> (
      match replay_ops r r.Oracle.ops with Ok () -> go rest | Error _ as e -> e)
  in
  go ordered

(* A history over six addresses, end times nondecreasing (ties
   included). Reads observe the serial model's value, except that with
   [corrupt] set, reads whose noise is a multiple of 5 observe a value
   other than the model's. *)
let history_gen =
  QCheck.(
    pair bool
      (list_of_size
         Gen.(1 -- 40)
         (triple (int_bound 3) (int_bound 2)
            (list_of_size Gen.(0 -- 6) (triple bool (int_bound 5) small_nat)))))

let kinds =
  [| Oracle.Htm_commit; Oracle.Tl_commit; Oracle.Stl_commit;
     Oracle.Sw_commit; Oracle.Plain_section |]

let records_of (corrupt, sections) ~initial =
  let model = Hashtbl.create 16 in
  List.iter (fun (a, v) -> Hashtbl.replace model a v) initial;
  let get a = Option.value ~default:0 (Hashtbl.find_opt model a) in
  let time = ref 0 in
  List.mapi
    (fun seq (core, dt, ops) ->
      time := !time + dt;
      let ops =
        List.map
          (fun (is_write, slot, noise) ->
            let addr = 64 * (slot + 4) in
            if is_write then begin
              Hashtbl.replace model addr noise;
              Oracle.W (addr, noise)
            end
            else if corrupt && noise mod 5 = 0 then
              Oracle.R (addr, get addr + 1 + noise)
            else Oracle.R (addr, get addr))
          ops
      in
      {
        Oracle.core;
        end_time = !time;
        seq;
        kind = kinds.(seq mod Array.length kinds);
        ops;
      })
    sections

let prop_online_matches_batch =
  QCheck.Test.make ~name:"online oracle agrees with batch replay" ~count:500
    history_gen (fun h ->
      let initial = [ (64 * 5, 3) ] in
      let records = records_of h ~initial in
      let t = Oracle.create ~initial ~cores:4 () in
      List.iter
        (fun (r : Oracle.record) ->
          Oracle.record t ~core:r.core ~end_time:r.end_time ~kind:r.kind
            ~ops:r.ops)
        records;
      (* Same outcome, and on a violation the same culprit section
         (core, end_time, seq, kind, ops), read and expected value. *)
      Oracle.verify t = batch_verify ~initial records
      && Oracle.size t = List.length records)

let test_out_of_order_rejected () =
  let t = Oracle.create ~cores:4 () in
  Oracle.record t ~core:0 ~end_time:10 ~kind:Oracle.Htm_commit
    ~ops:[ Oracle.W (64, 1) ];
  Oracle.write t ~core:1 ~addr:64 ~value:2;
  match Oracle.commit t ~core:1 ~end_time:9 ~kind:Oracle.Htm_commit with
  | () -> Alcotest.fail "an end_time below the previous commit was accepted"
  | exception Invalid_argument msg ->
    check Alcotest.string "named error"
      "Oracle.commit: end_time 9 precedes the previous commit's 10; \
       sections must commit in serialization order"
      msg

let test_discard_drops_pending () =
  let t = Oracle.create ~cores:4 () in
  Oracle.read t ~core:0 ~addr:64 ~value:99;
  Oracle.discard t ~core:0;
  Oracle.read t ~core:0 ~addr:64 ~value:0;
  Oracle.commit t ~core:0 ~end_time:1 ~kind:Oracle.Htm_commit;
  check_bool "discarded read not replayed" true (ok t);
  check_int "one section" 1 (Oracle.size t)

let test_memory_bounded () =
  (* Serial counter-style sections over 64 addresses on four cores; the
     oracle's reachable heap must not grow with the number of
     sections. *)
  let t = Oracle.create ~cores:4 () in
  let model = Array.make 64 0 in
  let section i =
    let core = i mod 4 in
    for j = 0 to 3 do
      let slot = ((i * 7) + (j * 13)) mod 64 in
      let addr = 64 * (slot + 4) in
      Oracle.read t ~core ~addr ~value:model.(slot);
      model.(slot) <- model.(slot) + 1;
      Oracle.write t ~core ~addr ~value:model.(slot)
    done;
    Oracle.commit t ~core ~end_time:i ~kind:Oracle.Htm_commit
  in
  for i = 0 to 9_999 do section i done;
  let words_10k = Obj.reachable_words (Obj.repr t) in
  for i = 10_000 to 99_999 do section i done;
  let words_100k = Obj.reachable_words (Obj.repr t) in
  check_bool "verifies" true (ok t);
  check_int "sections" 100_000 (Oracle.size t);
  check_bool
    (Printf.sprintf "reachable words: %d after 100k <= %d after 10k"
       words_100k words_10k)
    true
    (words_100k <= words_10k)

(* --- runtime integration -------------------------------------------------- *)

let run_with_oracle sysconf program =
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
  let runtime = Runtime.create ~protocol ~store ~sysconf ~lock_addr:0 () in
  let oracle = Runtime.enable_oracle runtime in
  let acct = Accounting.create ~cores:4 in
  let cpus =
    Array.init (Array.length program) (fun core ->
        Core.spawn ~runtime ~core ~accounting:acct ~on_done:(fun () -> ()) ())
  in
  Array.iteri
    (fun core cpu -> Core.drive cpu (Program.stream (Program.cursor program.(core))))
    cpus;
  Sim.run sim;
  oracle

let contended_program =
  Array.init 4 (fun i ->
      List.init 12 (fun j ->
          {
            Program.pre_compute = 3;
            ops =
              [
                Program.Incr (64 * 16);
                Program.Compute (10 + (7 * ((i + j) mod 3)));
                Program.Incr (64 * (17 + (j mod 3)));
              ];
            post_compute = 3;
          }))

let test_all_systems_serializable () =
  List.iter
    (fun sysconf ->
      let oracle = run_with_oracle sysconf contended_program in
      check_bool (sysconf.Sysconf.name ^ " sections recorded") true
        (Oracle.size oracle > 0);
      match Oracle.verify oracle with
      | Ok () -> ()
      | Error v ->
        Alcotest.failf "%s: %a" sysconf.Sysconf.name Oracle.pp_violation v)
    Sysconf.all

let test_faulting_program_serializable () =
  let program =
    Array.init 4 (fun _ ->
        List.init 6 (fun _ ->
            {
              Program.pre_compute = 2;
              ops = [ Program.Incr (64 * 16); Program.Fault ];
              post_compute = 2;
            }))
  in
  List.iter
    (fun sysconf ->
      let oracle = run_with_oracle sysconf program in
      check_bool (sysconf.Sysconf.name ^ " verifies") true (ok oracle))
    [ Sysconf.baseline; Sysconf.lockiller_rwil; Sysconf.lockiller ]

let test_aborted_attempts_leave_no_records () =
  (* one thread, transactions that always fault on first attempt: the
     aborted attempts must not pollute the trace *)
  let program =
    [|
      List.init 4 (fun _ ->
          {
            Program.pre_compute = 1;
            ops = [ Program.Incr (64 * 16); Program.Fault ];
            post_compute = 1;
          });
    |]
  in
  let oracle = run_with_oracle Sysconf.baseline program in
  (* each tx: aborted HTM attempt (no record) + plain fallback section *)
  check_int "one record per completed section" 4 (Oracle.size oracle);
  check_int "fallback sections only" 4
    (Oracle.count oracle Oracle.Plain_section);
  check_bool "verifies" true (ok oracle)

let test_kinds_reported () =
  let program =
    Array.init 2 (fun _ ->
        List.init 6 (fun _ ->
            {
              Program.pre_compute = 2;
              ops = [ Program.Incr (64 * 16) ];
              post_compute = 2;
            }))
  in
  let oracle = run_with_oracle Sysconf.lockiller program in
  check_bool "has htm commits" true (Oracle.count oracle Oracle.Htm_commit > 0);
  check_int "kinds sum to the sections" (Oracle.size oracle)
    (Array.fold_left (fun n k -> n + Oracle.count oracle k) 0 kinds)

let () =
  Alcotest.run "oracle"
    [
      ( "replay",
        [
          Alcotest.test_case "empty" `Quick test_empty_history_verifies;
          Alcotest.test_case "sequential counter" `Quick
            test_sequential_counter_verifies;
          Alcotest.test_case "lost update detected" `Quick
            test_lost_update_detected;
          Alcotest.test_case "dirty read detected" `Quick
            test_dirty_read_detected;
          Alcotest.test_case "read own write" `Quick test_read_own_write_ok;
          Alcotest.test_case "initial values" `Quick
            test_initial_values_respected;
          Alcotest.test_case "tie break" `Quick
            test_tie_break_by_recording_order;
          Alcotest.test_case "interleaved addresses" `Quick
            test_interleaved_addresses;
          QCheck_alcotest.to_alcotest prop_serial_histories_verify;
          QCheck_alcotest.to_alcotest prop_corrupted_read_detected;
        ] );
      ( "online",
        [
          QCheck_alcotest.to_alcotest prop_online_matches_batch;
          Alcotest.test_case "out-of-order end_time rejected" `Quick
            test_out_of_order_rejected;
          Alcotest.test_case "discard drops pending ops" `Quick
            test_discard_drops_pending;
          Alcotest.test_case "memory bounded" `Quick test_memory_bounded;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "all systems serializable" `Quick
            test_all_systems_serializable;
          Alcotest.test_case "faults serializable" `Quick
            test_faulting_program_serializable;
          Alcotest.test_case "aborts leave no records" `Quick
            test_aborted_attempts_leave_no_records;
          Alcotest.test_case "kinds" `Quick test_kinds_reported;
        ] );
    ]
