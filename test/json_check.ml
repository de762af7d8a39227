(* Cram-test helper: read JSON on stdin and verify it parses; with
   --result, additionally require it to decode as a full
   Runner.result (every field present and well-typed); with --trace,
   require a Chrome/Perfetto trace (a traceEvents list whose events all
   carry name/ph/pid/tid, duration slices with ts and dur, counter
   tracks with ts and at least one numeric series). *)

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  Buffer.contents buf

let check_trace input =
  let module Json = Lk_sim.Json in
  let fail msg =
    Printf.eprintf "invalid trace: %s\n" msg;
    exit 1
  in
  let ( let* ) v f = match v with Ok x -> f x | Error m -> fail m in
  let* v = Json.of_string input in
  let* events = Result.bind (Json.member "traceEvents" v) Json.to_list in
  List.iter
    (fun e ->
      let* name = Result.bind (Json.member "name" e) Json.to_str in
      let* ph = Result.bind (Json.member "ph" e) Json.to_str in
      let* _ = Result.bind (Json.member "pid" e) Json.to_int in
      match ph with
      | "X" ->
        let* _ = Result.bind (Json.member "tid" e) Json.to_int in
        let* _ = Result.bind (Json.member "ts" e) Json.to_int in
        let* dur = Result.bind (Json.member "dur" e) Json.to_int in
        if dur < 0 then fail (name ^ ": negative duration")
      | "i" | "M" ->
        let* _ = Result.bind (Json.member "tid" e) Json.to_int in
        ()
      | "s" | "t" | "f" ->
        (* Flow events (kill arrows): need a track, a timestamp and a
           binding id; finish steps additionally bind to the enclosing
           slice, which Perfetto accepts with or without bp. *)
        let* _ = Result.bind (Json.member "tid" e) Json.to_int in
        let* _ = Result.bind (Json.member "ts" e) Json.to_int in
        let* _ = Result.bind (Json.member "id" e) Json.to_int in
        ()
      | "C" -> (
        (* Counter tracks: a timestamp plus at least one numeric
           series in args (tid is optional for counters). *)
        let* _ = Result.bind (Json.member "ts" e) Json.to_int in
        match Json.member "args" e with
        | Error m -> fail (name ^ ": " ^ m)
        | Ok (Json.Obj members) ->
          if members = [] then fail (name ^ ": counter with no series");
          List.iter
            (fun (k, v) ->
              match v with
              | Json.Int _ | Json.Float _ -> ()
              | _ -> fail (name ^ ": series " ^ k ^ " is not numeric"))
            members
        | Ok _ -> fail (name ^ ": counter args is not an object"))
      | _ -> fail (name ^ ": unexpected phase " ^ ph))
    events;
  Printf.printf "valid trace (%d events)\n" (List.length events)

let () =
  let want_result = Array.mem "--result" Sys.argv in
  let want_trace = Array.mem "--trace" Sys.argv in
  let input = read_all stdin in
  if want_trace then check_trace input
  else if want_result then
    match Lk_sim.Runner.result_of_json input with
    | Ok r -> Printf.printf "valid result (%s/%s)\n" r.Lk_sim.Runner.system
        r.Lk_sim.Runner.workload
    | Error msg ->
      Printf.eprintf "invalid result: %s\n" msg;
      exit 1
  else
    match Lk_sim.Json.of_string input with
    | Ok _ -> print_endline "valid json"
    | Error msg ->
      Printf.eprintf "invalid json: %s\n" msg;
      exit 1
