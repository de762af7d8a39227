(* lint: allow printf — the [Printf.sprintf] uses are validation and
   text-encoding error messages on cold paths; the binary codec in
   [Stream] is the hot path and stays formatter-free. *)

type t = { arrival : int; core : int; reads : int; writes : int; phase : int }

let max_phase = 15

let validate r =
  if r.arrival < 0 then Error (Printf.sprintf "arrival must be non-negative (got %d)" r.arrival)
  else if r.core < -1 then Error (Printf.sprintf "core must be >= -1 (got %d)" r.core)
  else if r.reads < 0 then Error (Printf.sprintf "reads must be non-negative (got %d)" r.reads)
  else if r.writes < 0 then
    Error (Printf.sprintf "writes must be non-negative (got %d)" r.writes)
  else if r.phase < 0 || r.phase > max_phase then
    Error (Printf.sprintf "phase must be in [0, %d] (got %d)" max_phase r.phase)
  else Ok ()

let equal a b =
  a.arrival = b.arrival && a.core = b.core && a.reads = b.reads
  && a.writes = b.writes && a.phase = b.phase

let to_line r =
  Printf.sprintf "%d %d %d %d %d" r.arrival r.core r.reads r.writes r.phase

let of_line line =
  let fields =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  match fields with
  | [ a; c; r; w; p ] -> (
      let int_field what s =
        match int_of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "%s is not an integer (got %S)" what s)
      in
      let ( let* ) = Result.bind in
      let* arrival = int_field "arrival" a in
      let* core = int_field "core" c in
      let* reads = int_field "reads" r in
      let* writes = int_field "writes" w in
      let* phase = int_field "phase" p in
      let rec_ = { arrival; core; reads; writes; phase } in
      let* () = validate rec_ in
      Ok rec_)
  | fields ->
      Error
        (Printf.sprintf "expected 5 fields (arrival core reads writes phase), got %d"
           (List.length fields))
