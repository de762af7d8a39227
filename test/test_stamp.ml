(* Tests of the synthetic STAMP workload generators: determinism,
   profile validity, structural properties (set sizes, fault rates,
   address-region discipline) and the conservation bookkeeping the
   runner relies on. *)

module Rng = Lk_engine.Rng
module Addr = Lk_coherence.Addr
module Program = Lk_cpu.Program
module Body = Lk_cpu.Body
module Workload = Lk_stamp.Workload
module Suite = Lk_stamp.Suite

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let gen ?(threads = 4) ?(seed = 1) ?(scale = 1.0) p =
  Workload.generate p ~threads ~seed ~scale

(* --- suite ------------------------------------------------------------ *)

let test_suite_composition () =
  check_int "nine workloads (STAMP minus bayes, two kmeans/vacation)" 9
    (List.length Suite.all);
  Alcotest.(check (list string))
    "paper order"
    [
      "genome"; "intruder"; "kmeans"; "kmeans+"; "labyrinth"; "ssca2";
      "vacation"; "vacation+"; "yada";
    ]
    Suite.names

let test_suite_find () =
  check_bool "find case-insensitive" true (Suite.find "GENOME" <> None);
  check_bool "find kmeans+" true (Suite.find "kmeans+" <> None);
  check_bool "unknown" true (Suite.find "quicksort" = None)

let test_suite_extras () =
  (* bayes is excluded from the paper's set but available as an extra *)
  check_bool "bayes not in the paper set" true
    (not (List.mem "bayes" Suite.names));
  check_bool "bayes findable" true (Suite.find "bayes" <> None);
  check_bool "micro-counter findable" true
    (Suite.find "micro-counter" <> None);
  List.iter
    (fun p ->
      match Workload.validate p with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "extra invalid: %s" msg)
    Suite.extras;
  (* extras generate runnable programs too *)
  List.iter
    (fun p ->
      check_bool
        (p.Workload.name ^ " generates")
        true
        (Program.validate (gen p) = Ok ()))
    Suite.extras

let test_all_profiles_valid () =
  List.iter
    (fun p ->
      match Workload.validate p with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "invalid profile: %s" msg)
    Suite.all

let test_high_contention_subset () =
  List.iter
    (fun p -> check_bool "member of suite" true (List.memq p Suite.all))
    Suite.high_contention

(* --- generation ------------------------------------------------------- *)

let test_generation_deterministic () =
  List.iter
    (fun p ->
      let a = gen p and b = gen p in
      check_bool (p.Workload.name ^ " deterministic") true (a = b))
    Suite.all

let test_generation_seed_sensitive () =
  let p = List.hd Suite.all in
  let a = gen ~seed:1 p and b = gen ~seed:2 p in
  check_bool "different seeds differ" true (a <> b)

let test_generation_thread_count () =
  let p = List.hd Suite.all in
  check_int "threads" 7 (Array.length (gen ~threads:7 p))

let test_generation_scale () =
  let p = List.hd Suite.all in
  let full = gen ~scale:1.0 p and half = gen ~scale:0.5 p in
  check_int "scaled tx count"
    (List.length full.(0) / 2)
    (List.length half.(0));
  let tiny = gen ~scale:0.0001 p in
  check_int "scale floor of one tx" 1 (List.length tiny.(0));
  (* NaN and +inf pass a [<= 0] test; neither may become a length. *)
  List.iter
    (fun (label, scale) ->
      Alcotest.check_raises label
        (Invalid_argument
           (Printf.sprintf
              "Workload.streams: scale must be finite and positive (got %g)"
              scale))
        (fun () -> ignore (gen ~scale p)))
    [ ("nan", Float.nan); ("inf", Float.infinity); ("zero", 0.0) ]

let test_generated_programs_validate () =
  List.iter
    (fun p ->
      match Program.validate (gen p) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" p.Workload.name msg)
    Suite.all

let body_stats p =
  let program = gen p in
  let reads = ref 0 and writes = ref 0 and faults = ref 0 and txs = ref 0 in
  Array.iter
    (List.iter (fun tx ->
         incr txs;
         List.iter
           (function
             | Program.Read _ -> incr reads
             | Program.Write _ | Program.Incr _ | Program.Add _ -> incr writes
             | Program.Fault -> incr faults
             | Program.Compute _ -> ())
           tx.Program.ops))
    program;
  (!txs, !reads, !writes, !faults)

let test_read_write_ranges () =
  List.iter
    (fun p ->
      let txs, reads, writes, _ = body_stats p in
      let lo_r, hi_r = p.Workload.reads_per_tx in
      let lo_w, hi_w = p.Workload.writes_per_tx in
      let avg_r = float_of_int reads /. float_of_int txs in
      let avg_w = float_of_int writes /. float_of_int txs in
      check_bool
        (Printf.sprintf "%s: avg reads %.1f in [%d,%d]" p.Workload.name avg_r
           lo_r hi_r)
        true
        (avg_r >= float_of_int lo_r && avg_r <= float_of_int hi_r);
      check_bool
        (Printf.sprintf "%s: avg writes %.1f in [%d,%d]" p.Workload.name avg_w
           lo_w hi_w)
        true
        (avg_w >= float_of_int lo_w && avg_w <= float_of_int hi_w))
    Suite.all

let test_fault_rates () =
  List.iter
    (fun p ->
      let txs, _, _, faults = body_stats p in
      let rate = float_of_int faults /. float_of_int txs in
      if p.Workload.fault_prob = 0.0 then
        check_int (p.Workload.name ^ ": no faults") 0 faults
      else
        check_bool
          (Printf.sprintf "%s: fault rate %.2f near %.2f" p.Workload.name rate
             p.Workload.fault_prob)
          true
          (abs_float (rate -. p.Workload.fault_prob) < 0.15))
    Suite.all

let test_addresses_line_aligned_and_clear_of_lock () =
  List.iter
    (fun p ->
      List.iter
        (fun a ->
          check_int "line aligned" 0 (a mod Addr.line_size);
          check_bool "clear of the lock line" true
            (Addr.line_of_byte a <> Addr.line_of_byte Workload.lock_addr))
        (Program.touched_addresses (gen p)))
    Suite.all

let test_yada_is_fault_prone () =
  let yada = Option.get (Suite.find "yada") in
  check_bool "yada faults a lot" true (yada.Workload.fault_prob > 0.5);
  let genome = Option.get (Suite.find "genome") in
  check_bool "genome does not fault" true (genome.Workload.fault_prob = 0.0)

let test_labyrinth_overflows_typical_l1 () =
  (* labyrinth's minimum read set alone exceeds one 4-way L1's
     conflict-free capacity in expectation *)
  let labyrinth = Option.get (Suite.find "labyrinth") in
  check_bool "large read sets" true (fst labyrinth.Workload.reads_per_tx > 100)

let test_plus_variants_more_contended () =
  let pairs = [ ("kmeans", "kmeans+"); ("vacation", "vacation+") ] in
  List.iter
    (fun (low, high) ->
      let l = Option.get (Suite.find low) and h = Option.get (Suite.find high) in
      check_bool (high ^ " has smaller hot set") true
        (h.Workload.hot_lines < l.Workload.hot_lines);
      check_bool (high ^ " has at least the hot fraction") true
        (h.Workload.hot_fraction >= l.Workload.hot_fraction))
    pairs

(* --- conservation bookkeeping ----------------------------------------- *)

(* Draw every transaction of [cursors] the way a run does: round-robin
   across threads, one transaction each, instead of thread by thread. *)
let draw_interleaved (cursors : Program.cursor array) ~f =
  let drawn = Array.map (fun _ -> []) cursors in
  let longest =
    Array.fold_left (fun acc c -> max acc c.Program.length) 0 cursors
  in
  for i = 0 to longest - 1 do
    Array.iteri
      (fun t (c : Program.cursor) ->
        if i < c.Program.length then
          drawn.(t) <- f (c.Program.next ()) :: drawn.(t))
      cursors
  done;
  Array.map List.rev drawn

(* [streams] as cursors: every draw goes through one shared body, which
   [drawn] sees before it is unpacked. *)
let flat_cursors (streams : Program.stream array) ~drawn =
  let b = Body.create () in
  Array.map
    (fun (s : Program.stream) ->
      {
        Program.length = s.Program.count;
        next =
          (fun () ->
            s.Program.draw b;
            drawn b;
            Program.unpack b);
      })
    streams

let test_cursors_match_generate () =
  List.iter
    (fun (name, threads, seed) ->
      let p = Option.get (Suite.find name) in
      let drawn =
        draw_interleaved
          (flat_cursors (Workload.streams p ~threads ~seed ~scale:0.5)
             ~drawn:ignore)
          ~f:Fun.id
      in
      check_bool
        (Printf.sprintf "%s, %d threads, seed %d" name threads seed)
        true
        (drawn = Workload.generate p ~threads ~seed ~scale:0.5))
    (List.concat_map
       (fun name ->
         List.concat_map
           (fun threads ->
             List.map (fun seed -> (name, threads, seed)) [ 1; 2; 7 ])
           [ 1; 3; 32 ])
       [ "genome"; "kmeans"; "yada" ])

let test_cursor_state_is_per_thread () =
  (* A stream holds its thread's RNG, not its transactions: the drawn
     program's size must not show in the streams' reachable words. *)
  let p = Option.get (Suite.find "ssca2") in
  let words scale =
    Obj.reachable_words
      (Obj.repr (Workload.streams p ~threads:128 ~seed:1 ~scale))
  in
  check_int "scale 16 = scale 1" (words 1.0) (words 16.0);
  check_bool "O(threads)" true (words 1.0 < 128 * 64)

let test_expected_increments_match_program () =
  List.iter
    (fun p ->
      let program = gen p in
      (* tallied from the flat bodies at draw time, as the runner does *)
      let tally = Workload.tally p in
      ignore
        (draw_interleaved
           (flat_cursors (Workload.streams p ~threads:4 ~seed:1 ~scale:1.0)
              ~drawn:(Workload.count tally))
           ~f:Fun.id);
      let expected = Workload.expected tally in
      (* recount from the program *)
      let counts = Hashtbl.create 64 in
      Array.iter
        (List.iter (fun tx ->
             List.iter
               (function
                 | Program.Incr a ->
                   Hashtbl.replace counts a
                     (1 + Option.value ~default:0 (Hashtbl.find_opt counts a))
                 | _ -> ())
               tx.Program.ops))
        program;
      List.iter
        (fun (a, n) ->
          check_int
            (Printf.sprintf "%s: increments at %#x" p.Workload.name a)
            n
            (Option.value ~default:0 (Hashtbl.find_opt counts a)))
        expected;
      check_bool
        (p.Workload.name ^ ": one entry per hot address, sorted")
        true
        (List.map fst expected
        = List.sort_uniq compare (Workload.hot_addresses p)))
    Suite.all

(* The op-list generator the flat bodies replaced, kept as a reference
   model of the draw order: every RNG draw, in order, and the body each
   transaction gets. *)
let reference_generate (p : Workload.profile) ~threads ~seed ~scale =
  let addr line = Addr.byte_of_line line in
  let hot_base = 16 in
  let shared_base = hot_base + p.hot_lines in
  let uniform_in rng (lo, hi) =
    if hi <= lo then lo else lo + Rng.int rng (hi - lo + 1)
  in
  let hot rng = Rng.chance rng p.hot_fraction && p.hot_lines > 0 in
  let pick_hot rng = hot_base + Rng.zipf rng ~n:p.hot_lines ~s:p.zipf_skew in
  let pick_shared rng = shared_base + Rng.int rng p.shared_lines in
  let tx rng thread =
    let n_reads = uniform_in rng p.reads_per_tx in
    let n_writes = uniform_in rng p.writes_per_tx in
    let ops =
      Array.init (n_reads + n_writes) (fun i ->
          if i < n_reads then
            let line = if hot rng then pick_hot rng else pick_shared rng in
            Program.Read (addr line)
          else if hot rng then Program.Incr (addr (pick_hot rng))
          else
            let token = Rng.int rng 1024 in
            let line =
              if p.private_lines = 0 then pick_shared rng
              else
                shared_base + p.shared_lines
                + (thread * (p.private_lines + 1))
                + Rng.int rng p.private_lines
            in
            Program.Write (addr line, token))
    in
    Rng.shuffle rng ops;
    let body =
      List.concat_map
        (fun op ->
          if p.compute_per_op > 0 then [ Program.Compute p.compute_per_op; op ]
          else [ op ])
        (Array.to_list ops)
    in
    let len = List.length body in
    let fault_at =
      if Rng.chance rng p.fault_prob then
        let lo = 3 * len / 4 in
        lo + Rng.int rng (len - lo + 1)
      else -1
    in
    let post_compute = uniform_in rng p.post_compute in
    let pre_compute = uniform_in rng p.pre_compute in
    let ops =
      List.filteri (fun i _ -> i < fault_at) body
      @ (if fault_at >= 0 then [ Program.Fault ] else [])
      @ List.filteri (fun i _ -> fault_at < 0 || i >= fault_at) body
    in
    { Program.pre_compute; ops; post_compute }
  in
  let length = max 1 (int_of_float (float_of_int p.txs_per_thread *. scale)) in
  Array.mapi
    (fun thread rng -> List.init length (fun _ -> tx rng thread))
    (Workload.thread_rngs p ~threads ~seed)

(* Every profile at seeds 1 and 2: the flat bodies, drawn interleaved
   as a run draws them, unpack to the reference model's op lists, and
   so does [generate]; the tally read from the flat bodies is the
   recount of the reference bodies' increments. *)
let test_flat_bodies_pin_draw_order () =
  List.iter
    (fun (p, seed) ->
      let threads = 3 and scale = 0.5 in
      let label = Printf.sprintf "%s, seed %d" p.Workload.name seed in
      let reference = reference_generate p ~threads ~seed ~scale in
      let tally = Workload.tally p in
      let flat =
        draw_interleaved
          (flat_cursors (Workload.streams p ~threads ~seed ~scale)
             ~drawn:(Workload.count tally))
          ~f:Fun.id
      in
      check_bool (label ^ ": flat bodies") true (flat = reference);
      check_bool (label ^ ": generate") true
        (Workload.generate p ~threads ~seed ~scale = reference);
      let recount = Hashtbl.create 64 in
      Array.iter
        (List.iter (fun tx ->
             List.iter
               (function
                 | Program.Incr a ->
                   Hashtbl.replace recount a
                     (1 + Option.value ~default:0 (Hashtbl.find_opt recount a))
                 | _ -> ())
               tx.Program.ops))
        reference;
      List.iter
        (fun (a, n) ->
          check_int
            (Printf.sprintf "%s: increments at %#x" label a)
            (Option.value ~default:0 (Hashtbl.find_opt recount a))
            n)
        (Workload.expected tally);
      check_int (label ^ ": every increment tallied")
        (Hashtbl.fold (fun _ n acc -> acc + n) recount 0)
        (List.fold_left (fun acc (_, n) -> acc + n) 0 (Workload.expected tally)))
    (List.concat_map
       (fun p -> [ (p, 1); (p, 2) ])
       (Suite.all @ Suite.extras))

(* A body packed, then unpacked, is the transaction it was; a flat
   body reused for a shorter one keeps none of the longer's slots. *)
let test_pack_roundtrip () =
  let tx ops = { Program.pre_compute = 3; ops; post_compute = 4 } in
  let long =
    tx
      Program.
        [ Compute 5; Read 64; Write (128, -7); Incr 192; Add (256, -3); Fault ]
  in
  let short = tx [ Program.Incr 64 ] in
  let b = Body.create () in
  let edges =
    tx Program.[ Read ((1 lsl 59) - 1); Add (0, min_int); Compute (-(1 lsl 59)) ]
  in
  List.iter
    (fun t ->
      Program.pack t b;
      check_bool "roundtrip" true (Program.unpack b = t))
    [ long; short; long; tx []; edges ];
  Alcotest.check_raises "operand too wide"
    (Invalid_argument "Body.set: operand out of range") (fun () ->
      Program.pack (tx [ Program.Read (1 lsl 59) ]) b)

let test_hot_addresses_cover_increment_targets () =
  List.iter
    (fun p ->
      let hot = Workload.hot_addresses p in
      Array.iter
        (List.iter (fun tx ->
             List.iter
               (function
                 | Program.Incr a ->
                   check_bool "incr target is hot" true (List.mem a hot)
                 | _ -> ())
               tx.Program.ops))
        (gen p))
    Suite.all

(* --- properties -------------------------------------------------------- *)

let profile_gen =
  QCheck.Gen.(
    let* hot_lines = 1 -- 64 in
    let* shared = 64 -- 1024 in
    let* r_lo = 1 -- 10 in
    let* r_hi = r_lo -- 30 in
    let* w_lo = 0 -- 5 in
    let* w_hi = w_lo -- 10 in
    let* hot_fraction = float_bound_inclusive 1.0 in
    let* fault = float_bound_inclusive 0.5 in
    return
      {
        Workload.name = "prop";
        txs_per_thread = 5;
        reads_per_tx = (r_lo, r_hi);
        writes_per_tx = (w_lo, w_hi);
        hot_lines;
        hot_fraction;
        zipf_skew = 0.5;
        shared_lines = shared;
        private_lines = 16;
        compute_per_op = 1;
        pre_compute = (5, 10);
        post_compute = (5, 10);
        fault_prob = fault;
    barrier_every = None;
      })

let prop_random_profiles_generate_valid_programs =
  QCheck.Test.make ~name:"random profiles generate valid programs" ~count:50
    (QCheck.make profile_gen)
    (fun p ->
      match Workload.validate p with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
        let program = Workload.generate p ~threads:3 ~seed:7 ~scale:1.0 in
        Program.validate program = Ok ()
        && Array.length program = 3
        && Array.for_all (fun th -> List.length th = 5) program)

let prop_generation_is_pure =
  QCheck.Test.make ~name:"generation twice gives identical programs" ~count:30
    (QCheck.make profile_gen)
    (fun p ->
      match Workload.validate p with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
        Workload.generate p ~threads:2 ~seed:3 ~scale:1.0
        = Workload.generate p ~threads:2 ~seed:3 ~scale:1.0)

(* --- program module ----------------------------------------------------- *)

let test_program_op_count () =
  check_int "op count" 12
    (Program.op_count
       [
         Program.Compute 10;
         Program.Read 64;
         Program.Incr 128;
       ])

let test_program_transactions () =
  let p =
    [|
      [ { Program.pre_compute = 0; ops = []; post_compute = 0 } ];
      [
        { Program.pre_compute = 0; ops = []; post_compute = 0 };
        { Program.pre_compute = 0; ops = []; post_compute = 0 };
      ];
    |]
  in
  check_int "three transactions" 3 (Program.transactions p)

let test_program_touched_addresses () =
  let p =
    [|
      [
        {
          Program.pre_compute = 0;
          ops =
            [
              Program.Read 128; Program.Write (64, 1); Program.Incr 128;
              Program.Add (192, -1); Program.Compute 5; Program.Fault;
            ];
          post_compute = 0;
        };
      ];
    |]
  in
  Alcotest.(check (list int)) "distinct sorted" [ 64; 128; 192 ]
    (Program.touched_addresses p)

let test_program_text_roundtrip () =
  List.iter
    (fun profile ->
      let program = gen ~threads:3 profile in
      match Program.of_text (Program.to_text program) with
      | Ok parsed ->
        check_bool (profile.Workload.name ^ " roundtrips") true
          (parsed = program)
      | Error msg -> Alcotest.failf "%s: %s" profile.Workload.name msg)
    Suite.all

let test_program_text_parsing () =
  let text =
    "# demo\n\
     thread\n\
     \  tx pre=5 post=7\n\
     \    compute 3\n\
     \    read 0x1000\n\
     \    write 0x2000 9\n\
     \    incr 4096\n\
     \    add 0x3000 -2\n\
     \    fault\n\
     thread\n\
     \  tx pre=0 post=0\n\
     \    incr 0x1000\n"
  in
  match Program.of_text text with
  | Error msg -> Alcotest.fail msg
  | Ok p ->
    check_int "two threads" 2 (Array.length p);
    let tx = List.hd p.(0) in
    check_int "pre" 5 tx.Program.pre_compute;
    check_int "post" 7 tx.Program.post_compute;
    check_int "six ops" 6 (List.length tx.Program.ops);
    check_bool "hex and decimal agree" true
      (List.mem (Program.Incr 4096) tx.Program.ops
      && List.mem (Program.Read 4096) tx.Program.ops)

let test_program_text_errors () =
  let bad cases =
    List.iter
      (fun (text, why) ->
        match Program.of_text text with
        | Ok _ -> Alcotest.failf "accepted bad input (%s)" why
        | Error _ -> ())
      cases
  in
  bad
    [
      ("", "empty");
      ("thread\n  read 0x100\n", "op outside tx");
      ("thread\n  tx pre=1\n", "missing post");
      ("thread\n  tx pre=1 post=1\n    frobnicate 3\n", "unknown op");
      ("thread\n  tx pre=x post=1\n", "bad int");
    ]

let test_program_validate_rejects_negative () =
  let bad =
    [|
      [ { Program.pre_compute = -1; ops = []; post_compute = 0 } ];
    |]
  in
  check_bool "negative pre rejected" true (Program.validate bad <> Ok ())

let () =
  Alcotest.run "stamp"
    [
      ( "suite",
        [
          Alcotest.test_case "composition" `Quick test_suite_composition;
          Alcotest.test_case "find" `Quick test_suite_find;
          Alcotest.test_case "extras" `Quick test_suite_extras;
          Alcotest.test_case "profiles valid" `Quick test_all_profiles_valid;
          Alcotest.test_case "high-contention subset" `Quick
            test_high_contention_subset;
        ] );
      ( "generation",
        [
          Alcotest.test_case "deterministic" `Quick
            test_generation_deterministic;
          Alcotest.test_case "seed sensitive" `Quick
            test_generation_seed_sensitive;
          Alcotest.test_case "thread count" `Quick test_generation_thread_count;
          Alcotest.test_case "scaling" `Quick test_generation_scale;
          Alcotest.test_case "programs validate" `Quick
            test_generated_programs_validate;
          Alcotest.test_case "read/write ranges" `Quick test_read_write_ranges;
          Alcotest.test_case "fault rates" `Quick test_fault_rates;
          Alcotest.test_case "address discipline" `Quick
            test_addresses_line_aligned_and_clear_of_lock;
          Alcotest.test_case "yada faults, genome not" `Quick
            test_yada_is_fault_prone;
          Alcotest.test_case "labyrinth large sets" `Quick
            test_labyrinth_overflows_typical_l1;
          Alcotest.test_case "plus variants contended" `Quick
            test_plus_variants_more_contended;
          QCheck_alcotest.to_alcotest
            prop_random_profiles_generate_valid_programs;
          QCheck_alcotest.to_alcotest prop_generation_is_pure;
          Alcotest.test_case "cursors match generate" `Quick
            test_cursors_match_generate;
          Alcotest.test_case "cursor state per thread" `Quick
            test_cursor_state_is_per_thread;
          Alcotest.test_case "flat bodies pin the draw order" `Quick
            test_flat_bodies_pin_draw_order;
          Alcotest.test_case "pack roundtrip" `Quick test_pack_roundtrip;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "expected increments" `Quick
            test_expected_increments_match_program;
          Alcotest.test_case "hot address coverage" `Quick
            test_hot_addresses_cover_increment_targets;
        ] );
      ( "program",
        [
          Alcotest.test_case "op count" `Quick test_program_op_count;
          Alcotest.test_case "transactions" `Quick test_program_transactions;
          Alcotest.test_case "touched addresses" `Quick
            test_program_touched_addresses;
          Alcotest.test_case "validate" `Quick
            test_program_validate_rejects_negative;
          Alcotest.test_case "text roundtrip" `Quick
            test_program_text_roundtrip;
          Alcotest.test_case "text parsing" `Quick test_program_text_parsing;
          Alcotest.test_case "text errors" `Quick test_program_text_errors;
        ] );
    ]
