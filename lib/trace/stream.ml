(* lint: allow printf — decode errors and the text codec build their
   messages with [Printf.sprintf]; the per-record binary path does
   not allocate strings. *)

type format = Text | Binary

let format_of_string = function
  | "text" -> Ok Text
  | "bin" -> Ok Binary
  | s -> Error (Printf.sprintf "unknown trace format %S (expected text or bin)" s)

let format_to_string = function Text -> "text" | Binary -> "bin"

let magic = "lktrace"
let version = 1

(* {1 Reading} *)

type state = Streaming | Done | Failed of string

type reader = {
  ic : in_channel;
  name : string;
  fmt : format;
  mutable line : int;  (** 1-based; the header is line 1. *)
  mutable last_arrival : int;
  mutable n_read : int;
  mutable state : state;
}

let err r fmt_str =
  Printf.ksprintf
    (fun msg -> Printf.sprintf "%s, line %d: %s" r.name r.line msg)
    fmt_str

let reader_of_channel ?(name = "<trace>") ic =
  match input_line ic with
  | exception End_of_file -> Error (Printf.sprintf "%s: empty input, missing trace header" name)
  | header -> (
      match String.split_on_char ' ' header with
      | [ m; v; f ] when m = magic -> (
          match (int_of_string_opt v, format_of_string f) with
          | Some v, Ok fmt when v = version ->
              Ok
                {
                  ic;
                  name;
                  fmt;
                  line = 1;
                  last_arrival = 0;
                  n_read = 0;
                  state = Streaming;
                }
          | Some v, Ok _ when v <> version ->
              Error
                (Printf.sprintf "%s: unsupported trace version %d (this build reads version %d)"
                   name v version)
          | _ ->
              Error (Printf.sprintf "%s: malformed trace header %S" name header))
      | _ ->
          Error
            (Printf.sprintf
               "%s: not a trace (expected header \"%s %d text|bin\", got %S)" name
               magic version header))

(* The binary decode path runs once per trace record inside the replay
   feeder, so it is written exception-style: the five varints come back
   as bare ints (no [Ok] box, no [Result.bind] closure per field) and
   malformed input raises [Decode_error], converted to [Error] once at
   the record boundary. The only allocations left per record are the
   record itself and its [Ok (Some _)] wrapping — callers may retain
   returned records, so those stay fresh. *)
exception Decode_error of string

let truncated r =
  raise
    (Decode_error
       (err r "truncated record (unexpected end of input mid-varint)"))

(* LEB128 unsigned varint, continuing from [acc] at bit [shift]. *)
let rec varint_tail r shift acc =
  if shift > 62 then raise (Decode_error (err r "varint overflows 63 bits"))
  else
    match input_byte r.ic with
    | exception End_of_file -> truncated r
    | b ->
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then acc else varint_tail r (shift + 7) acc

let read_varint r =
  match input_byte r.ic with
  | exception End_of_file -> truncated r
  | b0 -> if b0 land 0x80 = 0 then b0 else varint_tail r 7 (b0 land 0x7f)

let check_monotone r (rec_ : Record.t) =
  if rec_.arrival < r.last_arrival then
    Error
      (err r "arrival cycle %d is earlier than the previous record's (%d)"
         rec_.arrival r.last_arrival)
  else begin
    r.last_arrival <- rec_.arrival;
    r.n_read <- r.n_read + 1;
    Ok (Some rec_)
  end

let read_text r =
  match input_line r.ic with
  | exception End_of_file ->
      r.state <- Done;
      Ok None
  | line -> (
      r.line <- r.line + 1;
      match Record.of_line line with
      | Error e -> Error (err r "%s" e)
      | Ok rec_ -> check_monotone r rec_)

let read_binary r =
  match input_byte r.ic with
  | exception End_of_file ->
      r.state <- Done;
      Ok None
  | b0 -> (
      r.line <- r.line + 1;
      (* [line] counts records past the header in binary mode. *)
      match
        let delta =
          if b0 land 0x80 = 0 then b0 else varint_tail r 7 (b0 land 0x7f)
        in
        let core1 = read_varint r in
        let reads = read_varint r in
        let writes = read_varint r in
        let phase = read_varint r in
        ({
           arrival = r.last_arrival + delta;
           core = core1 - 1;
           reads;
           writes;
           phase;
         }
          : Record.t)
      with
      | rec_ -> (
          match Record.validate rec_ with
          | Ok () -> check_monotone r rec_
          | Error e -> Error (err r "%s" e))
      | exception Decode_error e -> Error e)

let read r =
  match r.state with
  | Done -> Ok None
  | Failed e -> Error e
  | Streaming -> (
      let res = match r.fmt with Text -> read_text r | Binary -> read_binary r in
      match res with
      | Error e ->
          r.state <- Failed e;
          res
      | Ok _ -> res)

let fold r ~init ~f =
  let rec go acc =
    match read r with
    | Error _ as e -> e
    | Ok None -> Ok acc
    | Ok (Some rec_) -> go (f acc rec_)
  in
  go init

(* {1 Writing} *)

type writer = {
  oc : out_channel;
  wfmt : format;
  mutable w_last : int;
  mutable n_written : int;
}

let writer_to_channel fmt oc =
  Printf.fprintf oc "%s %d %s\n" magic version (format_to_string fmt);
  { oc; wfmt = fmt; w_last = 0; n_written = 0 }

let write_varint oc v =
  let rec go v =
    if v < 0x80 then output_byte oc v
    else begin
      output_byte oc (v land 0x7f lor 0x80);
      go (v lsr 7)
    end
  in
  go v

let write w (rec_ : Record.t) =
  match Record.validate rec_ with
  | Error _ as e -> e
  | Ok () ->
      if rec_.arrival < w.w_last then
        Error
          (Printf.sprintf
             "record %d: arrival cycle %d is earlier than the previous record's (%d)"
             (w.n_written + 1) rec_.arrival w.w_last)
      else begin
        (match w.wfmt with
        | Text -> output_string w.oc (Record.to_line rec_ ^ "\n")
        | Binary ->
            write_varint w.oc (rec_.arrival - w.w_last);
            write_varint w.oc (rec_.core + 1);
            write_varint w.oc rec_.reads;
            write_varint w.oc rec_.writes;
            write_varint w.oc rec_.phase);
        w.w_last <- rec_.arrival;
        w.n_written <- w.n_written + 1;
        Ok ()
      end
