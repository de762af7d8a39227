module Int_table = Lk_engine.Int_table

type op = R of int * int | W of int * int

type kind = Htm_commit | Tl_commit | Stl_commit | Sw_commit | Plain_section

type record = {
  core : Lk_coherence.Types.core_id;
  end_time : int;
  seq : int;
  kind : kind;
  ops : op list;
}

type violation = { culprit : record; at : op; expected : int }

(* One core's pending section, in program order: op [i] is
   [ops.(2i)] = address * 2 + (1 for a write) and [ops.(2i+1)] = the
   value. Capacity survives [discard], so a core reuses its buffer. *)
type log = { mutable ops : int array; mutable len : int }

type t = {
  model : Int_table.t;  (* The serial execution's store. *)
  logs : log array;  (* Indexed by core. *)
  counts : int array;  (* Committed sections per kind. *)
  mutable next_seq : int;
  mutable last_end : int;
  mutable first : violation option;
}

let kind_index = function
  | Htm_commit -> 0
  | Tl_commit -> 1
  | Stl_commit -> 2
  | Sw_commit -> 3
  | Plain_section -> 4

let create ?(initial = []) ~cores () =
  let model = Int_table.create () in
  List.iter (fun (a, v) -> Int_table.replace model a v) initial;
  {
    model;
    logs = Array.init cores (fun _ -> { ops = Array.make 16 0; len = 0 });
    counts = Array.make 5 0;
    next_seq = 0;
    last_end = min_int;
    first = None;
  }

let push t core word value =
  let l = t.logs.(core) in
  if l.len + 2 > Array.length l.ops then begin
    let ops = Array.make (2 * Array.length l.ops) 0 in
    Array.blit l.ops 0 ops 0 l.len;
    l.ops <- ops
  end;
  l.ops.(l.len) <- word;
  l.ops.(l.len + 1) <- value;
  l.len <- l.len + 2

let read t ~core ~addr ~value = push t core (addr lsl 1) value
let write t ~core ~addr ~value = push t core ((addr lsl 1) lor 1) value
let discard t ~core = t.logs.(core).len <- 0

let op_at l i =
  let word = l.ops.(i) and value = l.ops.(i + 1) in
  if word land 1 = 1 then W (word lsr 1, value) else R (word lsr 1, value)

let ops_of l = List.init (l.len / 2) (fun i -> op_at l (2 * i))

(* Replay [l] against the model; [Some i] is the offset of the first
   read that disagrees with it. *)
let replay model l =
  let rec go i =
    if i >= l.len then None
    else
      let word = l.ops.(i) and value = l.ops.(i + 1) in
      let addr = word lsr 1 in
      if word land 1 = 1 then begin
        Int_table.replace model addr value;
        go (i + 2)
      end
      else if Int_table.find model addr ~default:0 <> value then Some i
      else go (i + 2)
  in
  go 0

let commit t ~core ~end_time ~kind =
  if end_time < t.last_end then
    invalid_arg
      ("Oracle.commit: end_time " ^ string_of_int end_time
     ^ " precedes the previous commit's " ^ string_of_int t.last_end
     ^ "; sections must commit in serialization order");
  t.last_end <- end_time;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let k = kind_index kind in
  t.counts.(k) <- t.counts.(k) + 1;
  let l = t.logs.(core) in
  (* Past the first violation the model is no serial execution any
     more; later sections are counted but not replayed. *)
  (match t.first with
  | Some _ -> ()
  | None -> (
    match replay t.model l with
    | None -> ()
    | Some i ->
      let at = op_at l i in
      let a = match at with R (a, _) | W (a, _) -> a in
      t.first <-
        Some
          {
            culprit = { core; end_time; seq; kind; ops = ops_of l };
            at;
            expected = Int_table.find t.model a ~default:0;
          }));
  l.len <- 0

let record t ~core ~end_time ~kind ~ops =
  discard t ~core;
  List.iter
    (function
      | R (addr, value) -> read t ~core ~addr ~value
      | W (addr, value) -> write t ~core ~addr ~value)
    ops;
  commit t ~core ~end_time ~kind

let size t = t.next_seq
let count t kind = t.counts.(kind_index kind)
let verify t = match t.first with None -> Ok () | Some v -> Error v

let kind_label = function
  | Htm_commit -> "htm"
  | Tl_commit -> "tl"
  | Stl_commit -> "stl"
  | Sw_commit -> "sw"
  | Plain_section -> "plain"

let pp_violation ppf v =
  let a, observed = match v.at with R (a, x) | W (a, x) -> (a, x) in
  Format.fprintf ppf
    "core %d (%s section ending at cycle %d) read %#x = %d but a serial \
     execution gives %d"
    v.culprit.core (kind_label v.culprit.kind) v.culprit.end_time a observed
    v.expected
