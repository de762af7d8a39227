(* lint: allow printf — parse and validation errors are built with
   [Printf.sprintf] while a program is read, before any simulation. *)

type op =
  | Compute of int
  | Read of int
  | Write of int * int
  | Incr of int
  | Add of int * int
  | Fault

type transaction = { pre_compute : int; ops : op list; post_compute : int }

type thread = transaction list

type t = thread array

type cursor = { length : int; next : unit -> transaction }

let cursor thread =
  let txs = Array.of_list thread in
  let drawn = ref 0 in
  {
    length = Array.length txs;
    next =
      (fun () ->
        let i = !drawn in
        drawn := i + 1;
        txs.(i));
  }

let pack tx b =
  let length = List.length tx.ops in
  Body.reserve b length;
  List.iteri
    (fun i -> function
      | Compute n -> Body.set b i Body.Compute n 0
      | Read a -> Body.set b i Body.Read a 0
      | Write (a, v) -> Body.set b i Body.Write a v
      | Incr a -> Body.set b i Body.Incr a 1
      | Add (a, d) -> Body.set b i Body.Add a d
      | Fault -> Body.set b i Body.Fault 0 0)
    tx.ops;
  Body.finish b ~length ~pre_compute:tx.pre_compute
    ~post_compute:tx.post_compute

let unpack b =
  let op i =
    let a = Body.operand b i and v = Body.value b i in
    match Body.kind b i with
    | Body.Compute -> Compute a
    | Body.Read -> Read a
    | Body.Write -> Write (a, v)
    | Body.Incr -> Incr a
    | Body.Add -> Add (a, v)
    | Body.Fault -> Fault
  in
  {
    pre_compute = Body.pre_compute b;
    ops = List.init (Body.length b) op;
    post_compute = Body.post_compute b;
  }

type stream = { count : int; draw : Body.t -> unit }

let stream (c : cursor) =
  { count = c.length; draw = (fun b -> pack (c.next ()) b) }

let op_insts = function
  | Compute n -> n
  | Read _ | Write _ | Incr _ | Add _ | Fault -> 1

let op_count ops = List.fold_left (fun acc op -> acc + op_insts op) 0 ops

let transactions t =
  Array.fold_left (fun acc thread -> acc + List.length thread) 0 t

let address = function
  | Read a | Write (a, _) | Incr a | Add (a, _) -> Some a
  | Compute _ | Fault -> None

let touched_addresses t =
  Array.to_list t
  |> List.concat_map (List.concat_map (fun tx -> List.filter_map address tx.ops))
  |> List.sort_uniq Int.compare

(* The first problem, in thread, transaction and body order. *)
let validate t =
  let problem tx =
    if tx.pre_compute < 0 || tx.post_compute < 0 then Some "negative compute"
    else
      List.find_map
        (function
          | Compute n when n < 0 -> Some "negative compute op"
          | op when Option.value (address op) ~default:0 < 0 ->
            Some "negative address"
          | _ -> None)
        tx.ops
  in
  let problems i thread =
    List.filter_map
      (fun tx -> Option.map (Printf.sprintf "thread %d: %s" i) (problem tx))
      thread
  in
  match List.concat (List.mapi problems (Array.to_list t)) with
  | [] -> Ok ()
  | msg :: _ -> Error msg

let op_to_text = function
  | Compute n -> Printf.sprintf "compute %d" n
  | Read a -> Printf.sprintf "read %#x" a
  | Write (a, v) -> Printf.sprintf "write %#x %d" a v
  | Incr a -> Printf.sprintf "incr %#x" a
  | Add (a, d) -> Printf.sprintf "add %#x %d" a d
  | Fault -> "fault"

let to_text t =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun thread ->
      Buffer.add_string buf "thread\n";
      List.iter
        (fun tx ->
          Printf.bprintf buf "  tx pre=%d post=%d\n" tx.pre_compute
            tx.post_compute;
          List.iter (fun op -> Printf.bprintf buf "    %s\n" (op_to_text op)) tx.ops)
        thread)
    t;
  Buffer.contents buf

exception Bad_line of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_line msg)) fmt

(* The [<int>] of a [key=<int>] token. *)
let key_value key tok =
  let n = String.length key + 1 in
  if String.length tok <= n || String.sub tok 0 n <> key ^ "=" then
    bad "expected %s=<int>, got %S" key tok;
  match int_of_string_opt (String.sub tok n (String.length tok - n)) with
  | Some v -> v
  | None -> bad "bad %s value %S" key tok

let op_of_tokens tokens =
  let int tok = match int_of_string_opt tok with Some v -> v | None -> raise Exit in
  try
    match tokens with
    | [ "compute"; n ] -> Compute (int n)
    | [ "read"; a ] -> Read (int a)
    | [ "write"; a; v ] -> Write (int a, int v)
    | [ "incr"; a ] -> Incr (int a)
    | [ "add"; a; d ] -> Add (int a, int d)
    | [ "fault" ] -> Fault
    | _ -> raise Exit
  with Exit -> bad "unknown operation %S" (String.concat " " tokens)

(* Line-oriented parser. The finished threads, the current thread's
   transactions and the current body are built in reverse. *)
let of_text text =
  let threads = ref [] and txs = ref [] and ops = ref [] in
  let started = ref false in
  let close_tx () =
    (match !txs with
    | tx :: rest -> txs := { tx with ops = List.rev !ops } :: rest
    | [] -> ());
    ops := []
  in
  let close_thread () =
    close_tx ();
    threads := List.rev !txs :: !threads;
    txs := []
  in
  let line raw =
    let raw =
      match String.index_opt raw '#' with Some i -> String.sub raw 0 i | None -> raw
    in
    let tokens =
      String.split_on_char ' ' (String.trim raw) |> List.filter (fun s -> s <> "")
    in
    match (tokens, !txs) with
    | [], _ -> ()
    | [ "thread" ], _ ->
      if !started then close_thread ();
      started := true
    | [ "tx"; pre; post ], _ ->
      let pre_compute = key_value "pre" pre in
      let post_compute = key_value "post" post in
      close_tx ();
      started := true;
      txs := { pre_compute; ops = []; post_compute } :: !txs
    | "tx" :: _, _ -> bad "expected: tx pre=<int> post=<int>"
    | _, [] -> bad "operation outside a transaction"
    | _, _ :: _ -> ops := op_of_tokens tokens :: !ops
  in
  match
    List.iteri
      (fun i raw ->
        try line raw with Bad_line msg -> bad "line %d: %s" (i + 1) msg)
      (String.split_on_char '\n' text)
  with
  | exception Bad_line msg -> Error msg
  | () when not !started -> Error "empty program: no 'thread' sections"
  | () ->
    close_thread ();
    let program = Array.of_list (List.rev !threads) in
    Result.map_error
      (fun msg -> "invalid program: " ^ msg)
      (Result.map (fun () -> program) (validate program))
