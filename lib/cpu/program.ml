(* lint: allow printf — parse and validation errors are built with
   [Printf.sprintf] while a program is read, before any simulation.
   lint: allow hashtbl — [touched_addresses] dedups addresses once per
   program at setup; the per-event path never reaches it. *)

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

let op_insts = function
  | Compute n -> n
  | Read _ | Write _ | Incr _ | Add _ | Fault -> 1

let op_count ops = List.fold_left (fun acc op -> acc + op_insts op) 0 ops

let transactions t =
  Array.fold_left (fun acc thread -> acc + List.length thread) 0 t

let touched_addresses t =
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun thread ->
      List.iter
        (fun tx ->
          List.iter
            (function
              | Compute _ | Fault -> ()
              | Read a | Write (a, _) | Incr a | Add (a, _) ->
                Hashtbl.replace tbl a ())
            tx.ops)
        thread)
    t;
  Hashtbl.fold (fun a () acc -> a :: acc) tbl [] |> List.sort Int.compare

let validate t =
  let problem = ref None in
  let note msg = if !problem = None then problem := Some msg in
  Array.iteri
    (fun i thread ->
      List.iter
        (fun tx ->
          if tx.pre_compute < 0 || tx.post_compute < 0 then
            note (Printf.sprintf "thread %d: negative compute" i);
          List.iter
            (function
              | Compute n when n < 0 ->
                note (Printf.sprintf "thread %d: negative compute op" i)
              | Read a | Write (a, _) | Incr a | Add (a, _) ->
                if a < 0 then
                  note (Printf.sprintf "thread %d: negative address" i)
              | Compute _ | Fault -> ())
            tx.ops)
        thread)
    t;
  match !problem with None -> Ok () | Some msg -> Error msg

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
          Buffer.add_string buf
            (Printf.sprintf "  tx pre=%d post=%d\n" tx.pre_compute
               tx.post_compute);
          List.iter
            (fun op ->
              Buffer.add_string buf "    ";
              Buffer.add_string buf (op_to_text op);
              Buffer.add_char buf '\n')
            tx.ops)
        thread)
    t;
  Buffer.contents buf

(* Line-oriented parser with explicit state: which thread and which
   transaction we are appending to. Both are built in reverse and
   flipped at the end. *)
let of_text text =
  let error line msg = Error (Printf.sprintf "line %d: %s" line msg) in
  let int_of_token tok =
    try Some (int_of_string tok) with Failure _ -> None
  in
  let parse_kv line key tok =
    let prefix = key ^ "=" in
    let pl = String.length prefix in
    if String.length tok > pl && String.sub tok 0 pl = prefix then
      match int_of_token (String.sub tok pl (String.length tok - pl)) with
      | Some v -> Ok v
      | None -> error line (Printf.sprintf "bad %s value %S" key tok)
    else error line (Printf.sprintf "expected %s=<int>, got %S" key tok)
  in
  let lines = String.split_on_char '\n' text in
  (* threads_rev : finished threads; txs_rev : current thread's
     transactions; ops_rev : current transaction's body. *)
  let rec go lineno lines ~started threads_rev txs_rev ops_rev =
    let close_tx txs_rev =
      match txs_rev with
      | [] -> []
      | tx :: rest -> { tx with ops = List.rev ops_rev } :: rest
    in
    match lines with
    | [] -> begin
      if not started && txs_rev = [] then
        Error "empty program: no 'thread' sections"
      else
        let final_thread = List.rev (close_tx txs_rev) in
        Ok (Array.of_list (List.rev (final_thread :: threads_rev)))
    end
    | raw :: rest -> begin
      let line =
        match String.index_opt raw '#' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      let tokens =
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun s -> s <> "")
      in
      match tokens with
      | [] -> go (lineno + 1) rest ~started threads_rev txs_rev ops_rev
      | "thread" :: [] ->
        if not started then go (lineno + 1) rest ~started:true threads_rev [] []
        else
          let finished = List.rev (close_tx txs_rev) in
          go (lineno + 1) rest ~started:true (finished :: threads_rev) [] []
      | "tx" :: args -> begin
        match args with
        | [ pre_tok; post_tok ] -> begin
          match (parse_kv lineno "pre" pre_tok, parse_kv lineno "post" post_tok)
          with
          | Ok pre, Ok post ->
            let txs_rev = close_tx txs_rev in
            go (lineno + 1) rest ~started:true threads_rev
              ({ pre_compute = pre; ops = []; post_compute = post } :: txs_rev)
              []
          | (Error _ as e), _ | _, (Error _ as e) -> e
        end
        | _ -> error lineno "expected: tx pre=<int> post=<int>"
      end
      | op_tokens -> begin
        if txs_rev = [] then error lineno "operation outside a transaction"
        else
          let parsed =
            match op_tokens with
            | [ "compute"; n ] ->
              Option.map (fun n -> Compute n) (int_of_token n)
            | [ "read"; a ] -> Option.map (fun a -> Read a) (int_of_token a)
            | [ "write"; a; v ] -> begin
              match (int_of_token a, int_of_token v) with
              | Some a, Some v -> Some (Write (a, v))
              | _ -> None
            end
            | [ "incr"; a ] -> Option.map (fun a -> Incr a) (int_of_token a)
            | [ "add"; a; d ] -> begin
              match (int_of_token a, int_of_token d) with
              | Some a, Some d -> Some (Add (a, d))
              | _ -> None
            end
            | [ "fault" ] -> Some Fault
            | _ -> None
          in
          match parsed with
          | Some op ->
            go (lineno + 1) rest ~started threads_rev txs_rev (op :: ops_rev)
          | None ->
            error lineno
              (Printf.sprintf "unknown operation %S"
                 (String.concat " " op_tokens))
      end
    end
  in
  match go 1 lines ~started:false [] [] [] with
  | Error _ as e -> e
  | Ok program -> (
    match validate program with
    | Ok () -> Ok program
    | Error msg -> Error ("invalid program: " ^ msg))
