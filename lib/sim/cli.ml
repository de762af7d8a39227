let positive_int ~what s =
  match int_of_string_opt s with
  | None -> Error (Printf.sprintf "%s must be an integer (got %S)" what s)
  | Some n when n <= 0 ->
    Error (Printf.sprintf "%s must be positive (got %d)" what n)
  | Some n -> Ok n

let non_negative_int ~what s =
  match int_of_string_opt s with
  | None -> Error (Printf.sprintf "%s must be an integer (got %S)" what s)
  | Some n when n < 0 ->
    Error (Printf.sprintf "%s must be non-negative (got %d)" what n)
  | Some n -> Ok n

let scale ~what s =
  match float_of_string_opt s with
  | None -> Error (Printf.sprintf "%s must be a number (got %S)" what s)
  | Some f when not (Float.is_finite f && f > 0.0) ->
    Error (Printf.sprintf "%s must be finite and positive (got %s)" what s)
  | Some f -> Ok f

let cores ~what s =
  match int_of_string_opt s with
  | None -> Error (Printf.sprintf "%s must be an integer (got %S)" what s)
  | Some n when n < 1 || n > Config.max_cores ->
    Error
      (Printf.sprintf "%s must be a core count in 1-%d (got %d)" what
         Config.max_cores n)
  | Some n -> Ok n

let cache_profile s =
  match Config.cache_profile_of_id s with
  | Some c -> Ok c
  | None -> Error (Printf.sprintf "unknown cache profile %S" s)

let writable_path s =
  if s = "" then Error "output path must not be empty"
  else
    let dir = Filename.dirname s in
    if not (Sys.file_exists dir) then
      Error
        (Printf.sprintf "cannot write %s: directory %s does not exist" s dir)
    else if not (Sys.is_directory dir) then
      Error (Printf.sprintf "cannot write %s: %s is not a directory" s dir)
    else if Sys.file_exists s && Sys.is_directory s then
      Error (Printf.sprintf "cannot write %s: it is a directory" s)
    else Ok s
