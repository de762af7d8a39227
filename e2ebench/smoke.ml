(* Smoke test of the end-to-end benchmark at --smoke sizes.

   1. A traced run of all five workloads reports every metric that
      BENCHMARK.json names, with its unit, and repeats agree on the
      simulated-result digest.
   2. The sweep's digest is the same at --jobs 1 (the default) and
      --jobs 2.
   3. A deliberately failing child counts as a failed run without
      stopping the benchmark, and compare.exe flags the extra failure. *)

module Json = Lockiller.Sim.Json

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("smoke: " ^ msg);
      exit 1)
    fmt

let to_bool = function Json.Bool b -> Ok b | _ -> Error "not a boolean"
let get what = function Ok v -> v | Error e -> fail "%s: %s" what e
let field k conv v = get k (Result.bind (Json.member k v) conv)

let run prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED n -> (n, out)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> fail "%s was killed" prog

(* Run e2e.exe at smoke sizes; return its summary line. *)
let e2e args =
  match run "./e2e.exe" ("--smoke" :: args) with
  | 0, out ->
    let lines = String.split_on_char '\n' (String.trim out) in
    get "summary line" (Json.of_string (List.nth lines (List.length lines - 1)))
  | n, _ -> fail "e2e.exe %s exited with %d" (String.concat " " args) n

let read file =
  get file (Json.of_string (In_channel.with_open_bin file In_channel.input_all))

(* (name, unit) of one metric list in BENCHMARK.json. *)
let declared key =
  List.map
    (fun m -> (field "name" Json.to_str m, field "unit" Json.to_str m))
    (field key Json.to_list (read "../BENCHMARK.json"))

let workloads file =
  List.map
    (fun w -> (field "name" Json.to_str w, w))
    (field "workloads" Json.to_list (read file))

(* The entry for [metric] under [section] of [obj], checked for [unit]. *)
let entry ~where obj section (metric, unit) =
  match List.assoc_opt metric (field section Json.to_obj obj) with
  | Some m when field "unit" Json.to_str m = unit -> m
  | Some _ -> fail "%s: %s is not in %s" where metric unit
  | None -> fail "%s: no %s in %s" where metric section

let () =
  let summary =
    e2e [ "--repeats"; "2"; "--trace"; "1"; "--out"; "smoke.json" ]
  in
  if not (field "correct" to_bool summary) then fail "traced run not correct";
  let ws = workloads "smoke.json" in
  if List.length ws <> 5 then
    fail "expected 5 workloads, got %d" (List.length ws);
  List.iter
    (fun (name, w) ->
      List.iter
        (fun m ->
          let e = entry ~where:name w "metrics" m in
          ignore (field "median" Json.to_float e))
        (declared "end_to_end");
      List.iter
        (fun m -> ignore (entry ~where:name w "per_layer" m))
        (declared "per_layer");
      match field "digests" Json.to_list w with
      | [ a; b ] when a = b -> ()
      | _ -> fail "%s: the two repeats disagree on sim_digest" name)
    ws;
  ignore
    (e2e
       [ "--workload"; "fig7-sweep"; "--repeats"; "1"; "--jobs"; "2";
         "--out"; "smoke-j2.json" ]);
  let digest file =
    field "sim_digest" Json.to_str (List.assoc "fig7-sweep" (workloads file))
  in
  if digest "smoke.json" <> digest "smoke-j2.json" then
    fail "fig7-sweep: sim_digest differs between --jobs 1 and --jobs 2";
  let summary =
    e2e
      [ "--workload"; "intruder-32c"; "--repeats"; "3"; "--fail-repeat"; "2";
        "--out"; "smoke-fail.json" ]
  in
  if field "correct" to_bool summary then fail "failed child not reported";
  if field "attempted" Json.to_int summary <> 3
     || field "failed" Json.to_int summary <> 1
  then fail "expected 3 attempted, 1 failed";
  List.iter
    (fun m -> ignore (entry ~where:"summary line" summary "metrics" m))
    (declared "end_to_end");
  let frac =
    field "ops_failed_frac" Json.to_float
      (List.assoc "intruder-32c" (workloads "smoke-fail.json"))
  in
  if Float.abs (frac -. (1. /. 3.)) > 1e-9 then
    fail "ops_failed_frac is %g, not 1/3" frac;
  let compare a b =
    fst (run "./compare.exe" [ "--benchmark"; "../BENCHMARK.json"; a; b ])
  in
  if compare "smoke.json" "smoke.json" <> 0 then
    fail "compare: a report is worse than itself";
  if compare "smoke.json" "smoke-fail.json" <> 1 then
    fail "compare: more failures not flagged";
  print_endline "e2e smoke: ok"
