(* Tests of the trace layer (lib/trace) and the open-loop replay path:
   record/stream round-trips, malformed-input rejection, generator
   determinism, repeatable replay, the
   bounded-memory streaming guarantee, schema versioning and the
   Workload_spec scaling semantics. *)

module Record = Lk_trace.Record
module Stream = Lk_trace.Stream
module Gen = Lk_trace.Gen
module Runner = Lk_sim.Runner
module Config = Lk_sim.Config
module Schema = Lk_sim.Schema
module Workload_source = Lk_sim.Workload_source
module Cli = Lk_sim.Cli
module Sysconf = Lk_lockiller.Sysconf
module Suite = Lk_stamp.Suite
module Workload = Lk_stamp.Workload
module Json = Lk_sim.Json

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

let get = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg -> msg

(* --- Record ------------------------------------------------------------- *)

let r ?(arrival = 0) ?(core = -1) ?(reads = 4) ?(writes = 2) ?(phase = 0) () =
  { Record.arrival; core; reads; writes; phase }

let test_record_line () =
  let rec_ = r ~arrival:17 ~core:3 ~reads:5 ~writes:1 ~phase:2 () in
  check_string "to_line" "17 3 5 1 2" (Record.to_line rec_);
  check_bool "round-trip" true
    (Record.equal rec_ (get (Record.of_line (Record.to_line rec_))))

let test_record_rejects () =
  let msg = expect_error "3 fields" (Record.of_line "1 2 3") in
  check_string "field count"
    "expected 5 fields (arrival core reads writes phase), got 3" msg;
  let msg = expect_error "garbage" (Record.of_line "1 x 3 4 5") in
  check_string "non-integer" "core is not an integer (got \"x\")" msg;
  let msg = expect_error "negative" (Record.validate (r ~arrival:(-1) ())) in
  check_string "negative arrival" "arrival must be non-negative (got -1)" msg;
  let msg = expect_error "phase" (Record.validate (r ~phase:16 ())) in
  check_bool "phase range" true
    (String.length msg > 0 && msg.[0] = 'p')

(* --- Stream round-trips ------------------------------------------------- *)

let sample_records =
  [
    r ~arrival:0 ~core:(-1) ~reads:4 ~writes:2 ~phase:0 ();
    r ~arrival:0 ~core:0 ~reads:1 ~writes:0 ~phase:0 ();
    r ~arrival:3 ~core:7 ~reads:200 ~writes:100 ~phase:1 ();
    r ~arrival:3 ~core:7 ~reads:0 ~writes:1 ~phase:2 ();
    r ~arrival:50_000_000 ~core:31 ~reads:8 ~writes:8 ~phase:3 ();
  ]

let encode fmt records =
  let file = Filename.temp_file "lktrace_test" ".lkt" in
  let oc = open_out_bin file in
  let w = Stream.writer_to_channel fmt oc in
  List.iter (fun rec_ -> get (Stream.write w rec_)) records;
  close_out oc;
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove file;
  s

let decode_string s =
  let file = Filename.temp_file "lktrace_test" ".lkt" in
  let oc = open_out_bin file in
  output_string oc s;
  close_out oc;
  let ic = open_in_bin file in
  let result =
    match Stream.reader_of_channel ~name:"t" ic with
    | Error _ as e -> e
    | Ok reader -> Stream.fold reader ~init:[] ~f:(fun acc x -> x :: acc)
  in
  close_in ic;
  Sys.remove file;
  Result.map List.rev result

let roundtrip fmt () =
  let decoded = get (decode_string (encode fmt sample_records)) in
  check_int "record count" (List.length sample_records) (List.length decoded);
  List.iter2
    (fun a b ->
      check_bool (Printf.sprintf "record %s" (Record.to_line a)) true
        (Record.equal a b))
    sample_records decoded

let test_header () =
  let text = encode Stream.Text sample_records in
  check_string "text header" "lktrace 1 text"
    (List.hd (String.split_on_char '\n' text));
  let bin = encode Stream.Binary sample_records in
  check_string "binary header" "lktrace 1 bin"
    (List.hd (String.split_on_char '\n' bin))

let test_rejects_garbage () =
  let msg = expect_error "empty" (decode_string "") in
  check_string "empty" "t: empty input, missing trace header" msg;
  let msg = expect_error "not a trace" (decode_string "hello world\n") in
  check_bool "not a trace" true
    (String.length msg > 0
    && String.sub msg 0 16 = "t: not a trace (");
  let msg = expect_error "future version" (decode_string "lktrace 9 bin\n") in
  check_string "future version"
    "t: unsupported trace version 9 (this build reads version 1)" msg;
  let msg =
    expect_error "bad line" (decode_string "lktrace 1 text\n1 2 3\n")
  in
  check_string "bad line"
    "t, line 2: expected 5 fields (arrival core reads writes phase), got 3"
    msg

let test_rejects_truncation () =
  let bin = encode Stream.Binary sample_records in
  (* Chop the last byte: the final record's varints are cut short. *)
  let cut = String.sub bin 0 (String.length bin - 1) in
  let msg = expect_error "truncated" (decode_string cut) in
  check_bool "mid-varint" true
    (String.length msg >= 9
    && String.sub msg (String.length msg - 9) 9 = "d-varint)")

let test_rejects_regression () =
  let msg =
    expect_error "non-monotone"
      (decode_string "lktrace 1 text\n10 0 1 1 0\n5 0 1 1 0\n")
  in
  check_string "non-monotone"
    "t, line 3: arrival cycle 5 is earlier than the previous record's (10)"
    msg;
  (* The writer enforces the same invariant. *)
  let oc = open_out_bin Filename.null in
  let w = Stream.writer_to_channel Stream.Text oc in
  get (Stream.write w (r ~arrival:10 ()));
  let msg =
    expect_error "writer monotone" (Stream.write w (r ~arrival:9 ()))
  in
  close_out oc;
  check_string "writer monotone"
    "record 2: arrival cycle 9 is earlier than the previous record's (10)"
    msg

(* --- Generator ---------------------------------------------------------- *)

let small_profile =
  {
    Gen.default with
    Gen.users = 1000;
    think_time = 50_000.;
    duration = 100_000;
  }

let collect profile ~seed =
  let out = ref [] in
  let n = get (Gen.generate profile ~seed ~emit:(fun x -> out := x :: !out)) in
  (n, List.rev !out)

let test_gen_deterministic () =
  let n1, a = collect small_profile ~seed:42 in
  let n2, b = collect small_profile ~seed:42 in
  check_int "same count" n1 n2;
  check_bool "same records" true (List.for_all2 Record.equal a b);
  let _, c = collect small_profile ~seed:43 in
  check_bool "seed matters" false
    (List.length a = List.length c && List.for_all2 Record.equal a c)

let test_gen_valid_and_sorted () =
  let n, records = collect small_profile ~seed:7 in
  check_bool "nonempty" true (n > 0);
  check_int "count matches" n (List.length records);
  let last = ref (-1) in
  List.iter
    (fun x ->
      get (Record.validate x);
      check_bool "sorted" true (x.Record.arrival >= !last);
      check_bool "horizon" true (x.Record.arrival < small_profile.Gen.duration);
      last := x.Record.arrival)
    records

let test_gen_affinity () =
  let sticky =
    { small_profile with Gen.affinity = Gen.Sticky; cores = 4 }
  in
  let _, records = collect sticky ~seed:5 in
  List.iter
    (fun x ->
      check_bool "core tagged" true (x.Record.core >= 0 && x.Record.core < 4))
    records;
  let _, any = collect small_profile ~seed:5 in
  List.iter (fun x -> check_int "untagged" (-1) x.Record.core) any

let test_gen_validate () =
  let msg =
    expect_error "users" (Gen.validate { Gen.default with Gen.users = 0 })
  in
  check_string "users" "users must be positive (got 0)" msg

(* --- Replay ------------------------------------------------------------- *)

let quick_machine = Config.machine ~cores:4 ~cache:Config.Small ()

let replay_options = { Runner.default_options with Runner.machine = quick_machine }

let lockiller = Option.get (Sysconf.find "LockillerTM")
let vacation = Option.get (Suite.find "vacation")

let replay_trace records ~threads =
  let remaining = ref records in
  let next () =
    match !remaining with
    | [] -> Ok None
    | x :: rest ->
      remaining := rest;
      Ok (Some x)
  in
  Runner.replay ~options:replay_options ~sysconf:lockiller
    ~open_loop:{ Workload_source.trace_name = "test"; next; body = vacation }
    ~threads ()

let gen_records ?(profile = small_profile) ?(seed = 11) () =
  snd (collect profile ~seed)

let test_replay_basic () =
  let records = gen_records () in
  let result = replay_trace records ~threads:4 in
  let ol = Option.get result.Runner.open_loop in
  check_int "arrivals" (List.length records) ol.Runner.arrivals;
  check_int "completed" (List.length records) ol.Runner.completed;
  check_string "workload label" "test" result.Runner.workload;
  check_bool "backlog seen" true (ol.Runner.max_backlog >= 1);
  check_bool "commits conserved" true
    (result.Runner.htm_commits + result.Runner.stl_commits
     + result.Runner.lock_commits
    = List.length records)

let test_replay_repeatable () =
  let records = gen_records () in
  let first = replay_trace records ~threads:4 in
  let again = replay_trace records ~threads:4 in
  check_string "repeatable"
    (Json.to_string (Runner.json_of_result first))
    (Json.to_string (Runner.json_of_result again))

let test_replay_respects_affinity () =
  (* All arrivals pinned to core 2: with 4 stream cores everything must
     queue behind one server, so the backlog hits the full remaining
     trace depth at least once if arrivals outpace service. *)
  let records =
    List.map
      (fun x -> { x with Record.core = 2 })
      (gen_records ~profile:{ small_profile with Gen.duration = 20_000 } ())
  in
  let pinned = replay_trace records ~threads:4 in
  let spread =
    replay_trace
      (List.map (fun x -> { x with Record.core = -1 }) records)
      ~threads:4
  in
  let bl result = (Option.get result.Runner.open_loop).Runner.max_backlog in
  check_bool "pinning serialises" true (bl pinned >= bl spread)

let test_replay_rejects_bad_stream () =
  let next () = Error "simulated read failure" in
  match
    Runner.replay ~options:replay_options ~sysconf:lockiller
      ~open_loop:
        { Workload_source.trace_name = "bad"; next; body = vacation }
      ~threads:2 ()
  with
  | exception Failure msg ->
    check_bool "names the stream" true
      (String.length msg > 0
      &&
      let sub = "simulated read failure" in
      let rec find i =
        i + String.length sub <= String.length msg
        && (String.sub msg i (String.length sub) = sub || find (i + 1))
      in
      find 0)
  | _ -> Alcotest.fail "expected Failure on a failing stream"

(* A library-supplied [next] need not come from the validating reader:
   an out-of-range record must fail the replay with a message naming
   the system and trace, not crash inside the run. *)
let test_replay_rejects_bad_record () =
  let good =
    { Record.arrival = 5; core = 1; reads = 2; writes = 1; phase = 0 }
  in
  List.iter
    (fun (bad, want) ->
      match replay_trace [ good; bad ] ~threads:2 with
      | exception Failure msg ->
        check_string want ("Runner.replay: LockillerTM/test: " ^ want) msg
      | _ -> Alcotest.failf "expected Failure on %s" want)
    [
      ( { Record.arrival = 10; core = 0; reads = 2; writes = 1; phase = 99 },
        "phase must be in [0, 15] (got 99)" );
      ( { Record.arrival = 10; core = 0; reads = -1; writes = 1; phase = 0 },
        "reads must be non-negative (got -1)" );
      ( { Record.arrival = 10; core = -2; reads = 2; writes = 1; phase = 0 },
        "core must be >= -1 (got -2)" );
    ]

(* The streaming guarantee: replay memory is independent of trace
   length. Replay a short and a 16x-longer trace through temp files and
   require the major-heap growth attributable to the longer run to stay
   far below what materialising its records would cost. *)
let test_replay_bounded_memory () =
  let write_trace profile ~seed =
    let file = Filename.temp_file "lktrace_mem" ".lkt" in
    let oc = open_out_bin file in
    let w = Stream.writer_to_channel Stream.Binary oc in
    let n =
      get
        (Gen.generate profile ~seed ~emit:(fun x -> get (Stream.write w x)))
    in
    close_out oc;
    (file, n)
  in
  let replay_file file ~threads =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let reader = get (Stream.reader_of_channel ~name:file ic) in
        let source = Workload_source.of_reader ~body:vacation reader in
        Runner.run_source ~options:replay_options ~sysconf:lockiller ~source
          ~threads ())
  in
  (* Low offered load so the backlog (which legitimately holds memory)
     stays near zero and the probe sees only the streaming machinery. *)
  let profile n =
    {
      Gen.default with
      Gen.users = 200;
      think_time = 200_000.;
      duration = n;
      burst_every = 0;
    }
  in
  let short_file, _ = write_trace (profile 100_000) ~seed:3 in
  let long_file, n_long = write_trace (profile 1_600_000) ~seed:3 in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove short_file;
      Sys.remove long_file)
    (fun () ->
      (* Warm: code paths, caches, the simulator's own tables. The
         probe is retained *live* words, not [heap_words]: the chunk
         pool never shrinks on OCaml 5.1, so its size depends on GC
         pacing hysteresis rather than on what replay actually keeps
         reachable. *)
      let live () =
        Gc.compact ();
        Gc.((stat ()).live_words)
      in
      ignore (replay_file short_file ~threads:4);
      let before = live () in
      ignore (replay_file long_file ~threads:4);
      let after = live () in
      let growth = after - before in
      (* Materialised, n_long records cost >= 6 words each; streaming
         replay must stay well under that. *)
      let budget = n_long in
      check_bool
        (Printf.sprintf "heap growth %d words under budget %d (records %d)"
           growth budget n_long)
        true (growth < budget))

(* --- Schema versioning -------------------------------------------------- *)

let test_schema_check () =
  get (Schema.check Schema.version);
  let msg = expect_error "future" (Schema.check (Schema.version + 1)) in
  check_string "future"
    (Printf.sprintf
       "result schema v%d is newer than this build understands (v%d); \
        upgrade the binary to read it"
       (Schema.version + 1) Schema.version)
    msg;
  let msg = expect_error "past" (Schema.check 1) in
  check_bool "past names the changes" true
    (String.length msg > 0
    &&
    let sub = "predates this build" in
    let rec find i =
      i + String.length sub <= String.length msg
      && (String.sub msg i (String.length sub) = sub || find (i + 1))
    in
    find 0)

let test_result_json_schema_gate () =
  let result = replay_trace (gen_records ()) ~threads:4 in
  let json = Runner.json_of_result result in
  let reencode = function
    | Json.Obj members -> members
    | _ -> Alcotest.fail "result JSON is not an object"
  in
  let members = reencode json in
  check_bool "leads with schema" true
    (match members with ("schema", Json.Int v) :: _ -> v = Schema.version | _ -> false);
  (* Round-trips, including the open-loop block. *)
  let decoded = get (Runner.result_of_json (Json.to_string json)) in
  check_string "round-trip" (Json.to_string json)
    (Json.to_string (Runner.json_of_result decoded));
  let with_schema v =
    Json.Obj
      (List.map
         (function "schema", _ -> ("schema", Json.Int v) | kv -> kv)
         members)
  in
  let msg =
    expect_error "future schema"
      (Runner.result_of_json (Json.to_string (with_schema (Schema.version + 7))))
  in
  check_bool "future rejected" true
    (msg
    = Printf.sprintf
        "result schema v%d is newer than this build understands (v%d); \
         upgrade the binary to read it"
        (Schema.version + 7) Schema.version);
  let without_schema =
    Json.Obj (List.filter (fun (k, _) -> k <> "schema") members)
  in
  let msg =
    expect_error "missing schema"
      (Runner.result_of_json (Json.to_string without_schema))
  in
  check_string "missing rejected"
    (Printf.sprintf
       "missing \"schema\" member (result predates schema v%d); re-run to \
        regenerate"
       Schema.version)
    msg

(* --- Workload specs ----------------------------------------------------- *)

let test_spec_of_name () =
  let s = get (Suite.spec_of_name "kmeans+") in
  check_string "app" "kmeans" s.Suite.app;
  check_bool "high" true (s.Suite.size = Suite.High);
  let s = get (Suite.spec_of_name "genome") in
  check_bool "low" true (s.Suite.size = Suite.Low);
  ignore (expect_error "empty" (Suite.spec_of_name ""));
  ignore (expect_error "bare plus" (Suite.spec_of_name "+"))

let test_spec_scaling_matches_legacy () =
  (* The txsize experiment used to scale footprints inline with integer
     arithmetic: reads' = max 1 (lo * m / 4). The spec path must agree
     for every machine word size the experiment sweeps. *)
  let base = Option.get (Suite.find "vacation") in
  List.iter
    (fun m ->
      let spec =
        Suite.spec ~tag:true
          ~rw_scale:(float_of_int m /. 4.0)
          ~txs_scale:(4.0 /. float_of_int m)
          "vacation"
      in
      let scaled = get (Suite.realise spec) in
      let legacy (lo, hi) = (max 1 (lo * m / 4), max 1 (hi * m / 4)) in
      check_bool
        (Printf.sprintf "reads at m=%d" m)
        true
        (scaled.Workload.reads_per_tx = legacy base.Workload.reads_per_tx);
      check_bool
        (Printf.sprintf "writes at m=%d" m)
        true
        (scaled.Workload.writes_per_tx = legacy base.Workload.writes_per_tx);
      check_int
        (Printf.sprintf "txs at m=%d" m)
        (max 4 (base.Workload.txs_per_thread * 4 / m))
        scaled.Workload.txs_per_thread)
    [ 2; 4; 8; 16; 32 ];
  check_string "m=4 keeps the tagged name" "vacation-x1"
    (get (Suite.realise (Suite.spec ~tag:true "vacation"))).Workload.name

let test_spec_rejects () =
  ignore
    (expect_error "unknown app" (Suite.realise (Suite.spec "nonesuch")));
  ignore
    (expect_error "bad scale"
       (Suite.realise (Suite.spec ~rw_scale:0.0 "vacation")));
  check_string "nan rw_scale" "rw_scale must be finite and positive (got nan)"
    (expect_error "nan rw_scale"
       (Suite.realise (Suite.spec ~rw_scale:Float.nan "vacation")));
  check_string "infinite txs_scale"
    "txs_scale must be finite and positive (got inf)"
    (expect_error "infinite txs_scale"
       (Suite.realise (Suite.spec ~txs_scale:Float.infinity "vacation")))

(* --- Shared CLI validators ---------------------------------------------- *)

let test_cli_validators () =
  check_int "positive" 3 (get (Cli.positive_int ~what:"--jobs" "3"));
  check_string "zero" "--jobs must be positive (got 0)"
    (expect_error "zero" (Cli.positive_int ~what:"--jobs" "0"));
  check_bool "scale" true (get (Cli.scale ~what:"--scale" "0.25") = 0.25);
  List.iter
    (fun v ->
      check_string ("scale " ^ v)
        ("--scale must be finite and positive (got " ^ v ^ ")")
        (expect_error v (Cli.scale ~what:"--scale" v)))
    [ "nan"; "inf"; "-inf"; "0"; "-0.5" ];
  check_string "scale garbage" "--scale must be a number (got \"x\")"
    (expect_error "scale garbage" (Cli.scale ~what:"--scale" "x"));
  check_string "garbage" "--jobs must be an integer (got \"x\")"
    (expect_error "garbage" (Cli.positive_int ~what:"--jobs" "x"));
  check_int "non-negative" 0 (get (Cli.non_negative_int ~what:"--n" "0"));
  check_string "unknown profile" "unknown cache profile \"huge\""
    (expect_error "profile" (Cli.cache_profile "huge"));
  check_string "empty path" "output path must not be empty"
    (expect_error "empty path" (Cli.writable_path ""))

let () =
  Alcotest.run "trace"
    [
      ( "record",
        [
          Alcotest.test_case "line round-trip" `Quick test_record_line;
          Alcotest.test_case "rejects" `Quick test_record_rejects;
        ] );
      ( "stream",
        [
          Alcotest.test_case "text round-trip" `Quick (roundtrip Stream.Text);
          Alcotest.test_case "binary round-trip" `Quick
            (roundtrip Stream.Binary);
          Alcotest.test_case "headers" `Quick test_header;
          Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
          Alcotest.test_case "rejects truncation" `Quick
            test_rejects_truncation;
          Alcotest.test_case "rejects regression" `Quick
            test_rejects_regression;
        ] );
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "valid and sorted" `Quick
            test_gen_valid_and_sorted;
          Alcotest.test_case "affinity" `Quick test_gen_affinity;
          Alcotest.test_case "validate" `Quick test_gen_validate;
        ] );
      ( "replay",
        [
          Alcotest.test_case "basic" `Quick test_replay_basic;
          Alcotest.test_case "repeatable" `Quick test_replay_repeatable;
          Alcotest.test_case "affinity" `Quick test_replay_respects_affinity;
          Alcotest.test_case "bad stream" `Quick
            test_replay_rejects_bad_stream;
          Alcotest.test_case "bad record" `Quick
            test_replay_rejects_bad_record;
          Alcotest.test_case "bounded memory" `Slow
            test_replay_bounded_memory;
        ] );
      ( "schema",
        [
          Alcotest.test_case "check" `Quick test_schema_check;
          Alcotest.test_case "result gate" `Quick
            test_result_json_schema_gate;
        ] );
      ( "spec",
        [
          Alcotest.test_case "of_name" `Quick test_spec_of_name;
          Alcotest.test_case "legacy scaling" `Quick
            test_spec_scaling_matches_legacy;
          Alcotest.test_case "rejects" `Quick test_spec_rejects;
        ] );
      ( "cli",
        [ Alcotest.test_case "validators" `Quick test_cli_validators ] );
    ]
