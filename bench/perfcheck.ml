(* Perf regression gate: compare a fresh BENCH_micro.json against the
   committed bench/baseline.json.

   Usage: perfcheck.exe [CURRENT] [BASELINE]
   (defaults: BENCH_micro.json bench/baseline.json)

   The baseline is walked recursively. Every member it holds, section
   or leaf, must be present in the current results: a missing one fails
   the gate, so a dropped microbenchmark cannot pass unnoticed. Only
   metric leaves are compared, with a tolerance band per metric family
   so the gate trips on real regressions (wrong data structure,
   reintroduced boxing), not machine noise:

   - higher-is-better ("events_per_sec", "messages_per_sec",
     "*speedup"): wall-clock
     throughput, the noisy family — on a loaded or CPU-stealing host a
     benign run can land 2-2.5x under an idle-host baseline, so these
     use the wider [wall_tolerance] (3.0): fail when the current value
     drops below baseline / wall_tolerance. The real
     regressions this family exists to catch (losing the wheel fast
     path, a broken bucket chain) cost 4x and more;
   - lower-is-better ("minor_words_per_event"): allocation per event
     is deterministic — GC counters, not clocks — so these keep the
     tight [tolerance] (2.0): fail when the current value exceeds
     baseline * tolerance + 0.5 words of absolute slack
     (the baselines sit near zero, where a ratio alone is
     meaningless); a baseline of exactly 0 (the kernel posting
     registered handlers) is held at 0;
   - held ("reachable_words", "minor_words_per_message"): the
     footprint of a built or run machine is a heap walk, and the words
     a NoC send allocates are counted apart from any clock; both are
     exact and repeatable, so these fail as soon as the current value
     exceeds the baseline (0 for the send path). A deliberate gain is
     recorded by lowering the baseline.

   Everything else in the files (wall times, raw counters) is
   informational and ignored. *)

module Json = Lockiller.Sim.Json

let tolerance = 2.0
let wall_tolerance = 3.0

(* Flush the report first, so the verdict reads after it. *)
let die fmt =
  Printf.ksprintf
    (fun s ->
      flush stdout;
      prerr_endline s;
      exit 1)
    fmt

let load path =
  let ic = try open_in path with Sys_error e -> die "perfcheck: %s" e in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.of_string s with
  | Ok j -> j
  | Error e -> die "perfcheck: %s: %s" path e

let higher_better key =
  key = "events_per_sec" || key = "messages_per_sec"
  || String.length key >= 7
     && String.sub key (String.length key - 7) 7 = "speedup"

let lower_better key = key = "minor_words_per_event"
let held key = key = "reachable_words" || key = "minor_words_per_message"
let metric key = higher_better key || lower_better key || held key

let failures = ref 0
let checks = ref 0

let check path key baseline current =
  incr checks;
  let fail what limit =
    incr failures;
    Printf.printf "FAIL %-32s %12.3f vs baseline %12.3f (%s %.3f)\n" path
      current baseline what limit
  in
  if higher_better key then begin
    let floor = baseline /. wall_tolerance in
    if current < floor then fail "floor" floor
    else Printf.printf "ok   %-32s %12.3f (baseline %12.3f)\n" path current baseline
  end
  else if held key || baseline = 0.0 then begin
    if current > baseline then fail "held at" baseline
    else Printf.printf "ok   %-32s %12.0f (baseline %12.0f)\n" path current baseline
  end
  else begin
    let ceiling = (baseline *. tolerance) +. 0.5 in
    if current > ceiling then fail "ceiling" ceiling
    else Printf.printf "ok   %-32s %12.3f (baseline %12.3f)\n" path current baseline
  end

(* Recurse through objects; metric comparison is keyed on the member
   name of numeric leaves. *)
let rec walk path key baseline current =
  match (baseline, current) with
  | Json.Obj members, _ ->
    List.iter
      (fun (k, bv) ->
        let sub = if path = "" then k else path ^ "." ^ k in
        match Json.member k current with
        | Ok cv -> walk sub k bv cv
        | Error _ -> die "perfcheck: current results lack %s" sub)
      members
  | (Json.Int _ | Json.Float _), _ when metric key -> (
    match (Json.to_float baseline, Json.to_float current) with
    | Ok b, Ok c -> check path key b c
    | _ -> die "perfcheck: %s is not numeric in both files" path)
  | _ -> ()

let () =
  let default_baseline = Filename.concat "bench" "baseline.json" in
  let args = List.tl (Array.to_list Sys.argv) in
  (match List.find_opt (fun a -> String.length a > 0 && a.[0] = '-') args with
   | Some arg -> die "perfcheck: unknown option %S" arg
   | None -> ());
  let current, baseline =
    match args with
    | [] -> ("BENCH_micro.json", default_baseline)
    | [ c ] -> (c, default_baseline)
    | [ c; b ] -> (c, b)
    | _ :: _ :: extra :: _ -> die "perfcheck: unexpected argument %S" extra
  in
  let b = load baseline and c = load current in
  Printf.printf "# perfcheck: %s vs %s (tolerance %.1fx alloc, %.1fx wall)\n\n"
    current baseline tolerance wall_tolerance;
  walk "" "" b c;
  if !checks = 0 then die "perfcheck: no metrics found in %s" baseline;
  if !failures > 0 then die "\nperfcheck: %d of %d metrics regressed" !failures !checks;
  Printf.printf "\nperfcheck: %d metrics within tolerance\n" !checks
