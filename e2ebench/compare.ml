(* Compare two end-to-end benchmark reports: the parent commit against a
   change, both written by e2e.exe with the same settings.

   For each workload and each end-to-end metric of BENCHMARK.json it
   prints both medians with their quartiles and a verdict:
   - unresolved: either side's quartile spread (q3 - q1 over the median)
     exceeds the metric's bound, unless every run of the change reads
     better than every run of the parent;
   - worse: the change's median is worse by more than the bound;
   - better: the change's median is better by more than the bound;
   - unchanged: otherwise.
   It then compares the failed-run fractions and reports "simulated
   results changed" when a workload's sim_digest or any simulated count
   differs. Exits 1 on a worse metric or a higher failed-run fraction,
   2 on unreadable input.

   Usage: compare.exe [--benchmark BENCHMARK.json] PARENT.json CHANGE.json *)

module Json = Lockiller.Sim.Json

let ( let* ) = Result.bind

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("compare: " ^ msg);
      exit 2)
    fmt

let ok_or_die what = function Ok v -> v | Error e -> die "%s: %s" what e

let read_json file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | text -> ok_or_die file (Json.of_string text)

let field k conv v = Result.bind (Json.member k v) conv

type metric = { name : string; unit : string; lower : bool; bound : float }

let metrics_of_benchmark file =
  let v = read_json file in
  ok_or_die file
    (let* entries = field "end_to_end" Json.to_list v in
     List.fold_right
       (fun e acc ->
         let* acc = acc in
         let* name = field "name" Json.to_str e in
         let* unit = field "unit" Json.to_str e in
         let* better = field "better" Json.to_str e in
         let* bound = field "bound" Json.to_float e in
         Ok ({ name; unit; lower = better = "lower"; bound } :: acc))
       entries (Ok []))

type summary = { median : float; q1 : float; q3 : float; values : float list }

let summary_of v =
  let* median = field "median" Json.to_float v in
  let* q1 = field "q1" Json.to_float v in
  let* q3 = field "q3" Json.to_float v in
  let* values = field "values" Json.to_list v in
  let* values =
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* f = Json.to_float x in
        Ok (f :: acc))
      values (Ok [])
  in
  Ok { median; q1; q3; values }

let spread s = if s.median = 0. then infinity else (s.q3 -. s.q1) /. s.median

(* Positive when [c] is worse than [p], as a share of [p]. *)
let worsening m p c =
  let d = (c -. p) /. p in
  if m.lower then d else -.d

let verdict m p c =
  let d = worsening m p.median c.median in
  let all_better =
    List.for_all
      (fun cv -> List.for_all (fun pv -> worsening m pv cv < 0.) p.values)
      c.values
  in
  if Float.max (spread p) (spread c) > m.bound && not all_better then
    "unresolved"
  else if d > m.bound then "worse"
  else if -.d > m.bound then "better"
  else "unchanged"

let workloads report =
  ok_or_die "workloads" (field "workloads" Json.to_list report)
  |> List.map (fun w ->
         (ok_or_die "workload name" (field "name" Json.to_str w), w))

let counts w =
  match field "counts" Json.to_obj w with Ok kvs -> kvs | Error _ -> []

let () =
  let bench, parent_file, change_file =
    match List.tl (Array.to_list Sys.argv) with
    | [ "--benchmark"; b; p; c ] -> (b, p, c)
    | [ p; c ] -> ("BENCHMARK.json", p, c)
    | _ ->
      prerr_endline
        "usage: compare.exe [--benchmark BENCHMARK.json] PARENT.json \
         CHANGE.json";
      exit 2
  in
  let metrics = metrics_of_benchmark bench in
  let parent = read_json parent_file and change = read_json change_file in
  let seed r = Result.to_option (field "seed" Json.to_int r) in
  if seed parent <> seed change then
    print_endline "warning: the two reports were run with different seeds";
  let change_ws = workloads change in
  let failing = ref false in
  Printf.printf "%-14s %-24s %-30s %-30s %8s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "delta" "verdict";
  List.iter
    (fun (name, pw) ->
      match List.assoc_opt name change_ws with
      | None -> Printf.printf "%-14s (missing from %s)\n" name change_file
      | Some cw ->
        List.iter
          (fun m ->
            let get w =
              Result.to_option
                (Result.bind (field "metrics" Json.to_obj w) (fun ms ->
                     match List.assoc_opt m.name ms with
                     | Some v -> summary_of v
                     | None -> Error "absent"))
            in
            let show s =
              Printf.sprintf "%.4g [%.4g, %.4g]" s.median s.q1 s.q3
            in
            match (get pw, get cw) with
            | Some p, Some c ->
              let v = verdict m p c in
              if v = "worse" then failing := true;
              Printf.printf "%-14s %-24s %-30s %-30s %+7.1f%%  %s\n" name
                (Printf.sprintf "%s (%s)" m.name m.unit)
                (show p) (show c)
                (100. *. (c.median -. p.median) /. p.median)
                v
            | _ ->
              Printf.printf "%-14s %-24s (no value on one side)\n" name m.name)
          metrics;
        let frac w =
          ok_or_die "ops_failed_frac" (field "ops_failed_frac" Json.to_float w)
        in
        let fp = frac pw and fc = frac cw in
        if fc > fp then failing := true;
        Printf.printf "%-14s %-24s %-30g %-30g %8s  %s\n" name
          "ops_failed_frac (ratio)" fp fc ""
          (if fc > fp then "worse"
           else if fc < fp then "better"
           else "unchanged");
        let digest w = Result.to_option (field "sim_digest" Json.to_str w) in
        let changed =
          (if digest pw <> digest cw then [ "sim_digest" ] else [])
          @ List.filter_map
              (fun (k, pv) ->
                match List.assoc_opt k (counts cw) with
                | Some cv when cv = pv -> None
                | Some cv ->
                  Some
                    (Printf.sprintf "%s %s -> %s" k (Json.to_string pv)
                       (Json.to_string cv))
                | None -> Some (k ^ " missing"))
              (counts pw)
        in
        if changed <> [] then
          Printf.printf "%-14s simulated results changed: %s\n" name
            (String.concat ", " changed))
    (workloads parent);
  if !failing then exit 1
