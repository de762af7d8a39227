type table = {
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;
}

let table ?(notes = []) ~title ~headers rows = { title; headers; rows; notes }

let f2 f = Printf.sprintf "%.2f" f
let pct f = Printf.sprintf "%.1f%%" (100.0 *. f)

let widths t =
  let ncols =
    List.fold_left
      (fun acc row -> max acc (List.length row))
      (List.length t.headers) t.rows
  in
  let w = Array.make ncols 0 in
  let feed row =
    List.iteri
      (fun i cell -> if i < ncols then w.(i) <- max w.(i) (String.length cell))
      row
  in
  feed t.headers;
  List.iter feed t.rows;
  w

let pp_row ppf w row =
  List.iteri
    (fun i cell ->
      let pad = if i < Array.length w then w.(i) - String.length cell else 0 in
      if i > 0 then Format.pp_print_string ppf "  ";
      Format.pp_print_string ppf cell;
      Format.pp_print_string ppf (String.make (max pad 0) ' '))
    row;
  Format.pp_print_newline ppf ()

let pp_table ppf t =
  let w = widths t in
  let rule =
    String.concat "  " (Array.to_list (Array.map (fun n -> String.make n '-') w))
  in
  Format.fprintf ppf "== %s ==@." t.title;
  if t.headers <> [] then begin
    pp_row ppf w t.headers;
    Format.fprintf ppf "%s@." rule
  end;
  List.iter (pp_row ppf w) t.rows;
  List.iter (fun n -> Format.fprintf ppf "%s@." n) t.notes

let print t =
  pp_table Format.std_formatter t;
  Format.print_newline ()

let csv_cell cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let to_csv t =
  let row cells = String.concat "," (List.map csv_cell cells) in
  String.concat "\n"
    ((if t.headers = [] then [] else [ row t.headers ]) @ List.map row t.rows)
  ^ "\n"

let csv_filename t =
  let b = Buffer.create 64 in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char b c
      | 'A' .. 'Z' -> Buffer.add_char b (Char.lowercase_ascii c)
      | ' ' | '-' | '/' | ':' | ',' | '(' | ')' | '.' ->
        if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '_'
        then Buffer.add_char b '_'
      | _ -> ())
    t.title;
  let s = Buffer.contents b in
  let s =
    if String.length s > 0 && s.[String.length s - 1] = '_' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  s ^ ".csv"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_csv ~dir t =
  let path = Filename.concat dir (csv_filename t) in
  match
    mkdir_p dir;
    Out_channel.with_open_text path (fun oc -> output_string oc (to_csv t))
  with
  | () -> Ok path
  | exception Sys_error msg -> Error msg

let json_of_table t =
  Json.Obj
    [
      ("title", Json.String t.title);
      ("headers", Json.List (List.map (fun h -> Json.String h) t.headers));
      ( "rows",
        Json.List
          (List.map
             (fun row -> Json.List (List.map (fun c -> Json.String c) row))
             t.rows) );
      ("notes", Json.List (List.map (fun n -> Json.String n) t.notes));
    ]

let to_json t = Json.to_string (json_of_table t)
