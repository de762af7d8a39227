(* Hot-path lint for the simulator's inner-loop libraries.

   The event engine, the coherence protocol, the HTM value layer, the
   LockillerTM runtime and the cores run once per simulated message or
   event; a polymorphic comparison, a generic
   [Hashtbl] or a [Printf] that sneaks into them costs real time (and,
   for [compare] on abstract types, correctness risk). dune cannot
   express "this library must not use these Stdlib identifiers", so
   this is a small lexical checker:

     - poly-compare: bare [compare] / [max] / [min] (use [Int.compare],
       [Int.max], [Int.min] — monomorphic and inlined), and comparison
       operators used as function values: [(=)], [(<>)], [(<)], [(>)],
       [(<=)], [(>=)] (passing them forces the polymorphic path even on
       ints). Infix uses of [=] on immediates compile fine and are not
       (and cannot lexically be) flagged.
     - hashtbl: any use of [Hashtbl] (use [Lk_engine.Int_table] for
       int keys; generic hashing allocates and calls through [compare]).
     - printf: any use of [Printf] (hot code reports through [Stats] /
       [Ledger]; diagnostics use [Format] or string concatenation on
       cold paths).
     - dead-export: a [val] in any [lib/**/*.mli] that no file outside
       its own module references (see [dead_exports] below). Unlike the
       three rules above, it covers every library, not only the hot
       ones.

   Comments and string literals are stripped before matching, so
   prose mentioning the forbidden identifiers is fine. Suppression:
   append [lint-ok] in a comment on the offending line, or grant a
   file-wide waiver for one of the three hot-path rules with a
   [lint: allow <rule>] pragma comment (the pragma must state why). A
   dead export has no file-wide waiver: each one is waived on its own
   [val] line. *)

let scanned_dirs =
  [
    "lib/engine"; "lib/mesh"; "lib/coherence"; "lib/htm"; "lib/trace";
    "lib/check"; "lib/lockiller"; "lib/cpu";
  ]

type finding = { file : string; line : int; rule : string; message : string }

(* Replace comments and string/char literals with spaces (newlines
   kept, so line numbers survive). OCaml comments nest, and a string
   literal inside a comment must itself be balanced — the lexer below
   mirrors that. Returns (code, suppressed_lines, allowed_rules). *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let suppressed = ref [] in
  let allowed = ref [] in
  let line = ref 1 in
  let comment_buf = Buffer.create 64 in
  let comment_line = ref 1 in
  let i = ref 0 in
  let depth = ref 0 in
  let in_string = ref false in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then incr line;
    (if !in_string then begin
       blank !i;
       if c = '\\' && !i + 1 < n then begin
         blank (!i + 1);
         incr i
       end
       else if c = '"' then in_string := false
     end
     else if !depth > 0 then begin
       blank !i;
       if !depth > 0 then Buffer.add_char comment_buf c;
       if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
         blank (!i + 1);
         Buffer.add_char comment_buf '*';
         incr depth;
         incr i
       end
       else if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
         blank (!i + 1);
         Buffer.add_char comment_buf ')';
         decr depth;
         incr i;
         if !depth = 0 then begin
           (* Comment closed: interpret its text. *)
           let text = Buffer.contents comment_buf in
           let contains sub =
             let ls = String.length sub and lt = String.length text in
             let rec go j = j + ls <= lt && (String.sub text j ls = sub || go (j + 1)) in
             go 0
           in
           if contains "lint-ok" then
             for l = !comment_line to !line do
               suppressed := l :: !suppressed
             done;
           List.iter
             (fun rule ->
               if contains ("lint: allow " ^ rule) then
                 allowed := rule :: !allowed)
             [ "poly-compare"; "hashtbl"; "printf" ];
           Buffer.clear comment_buf
         end
       end
       else if c = '"' then begin
         (* A string inside a comment: skip to its end. *)
         incr i;
         let fin = ref false in
         while (not !fin) && !i < n do
           if src.[!i] = '\n' then incr line;
           blank !i;
           Buffer.add_char comment_buf src.[!i];
           if src.[!i] = '\\' && !i + 1 < n then begin
             blank (!i + 1);
             incr i
           end
           else if src.[!i] = '"' then fin := true;
           incr i
         done;
         decr i
       end
     end
     else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
       blank !i;
       blank (!i + 1);
       depth := 1;
       comment_line := !line;
       Buffer.clear comment_buf;
       incr i
     end
     else if c = '"' then begin
       blank !i;
       in_string := true
     end
     else if c = '\'' then
       (* Char literal or type variable. ['x'] and ['\n'] are chars;
          ['a] is a type variable and passes through. *)
       if !i + 2 < n && src.[!i + 1] <> '\\' && src.[!i + 2] = '\'' then begin
         blank !i;
         blank (!i + 1);
         blank (!i + 2);
         i := !i + 2
       end
       else if !i + 1 < n && src.[!i + 1] = '\\' then begin
         let j = ref (!i + 2) in
         while !j < n && src.[!j] <> '\'' do
           incr j
         done;
         for k = !i to min !j (n - 1) do
           blank k
         done;
         i := !j
       end);
    incr i
  done;
  (Bytes.to_string out, !suppressed, !allowed)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Previous non-blank character before position i, or ' '. *)
let prev_nonblank code i =
  let j = ref (i - 1) in
  while !j >= 0 && (code.[!j] = ' ' || code.[!j] = '\t') do
    decr j
  done;
  if !j >= 0 then code.[!j] else ' '

let line_of_offset code i =
  let l = ref 1 in
  for j = 0 to i - 1 do
    if code.[j] = '\n' then incr l
  done;
  !l

let read_file file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The identifier tokens of stripped code, as (offset, text) in order. *)
let idents code =
  let n = String.length code in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    if is_ident_char code.[!i] && (!i = 0 || not (is_ident_char code.[!i - 1]))
    then begin
      let j = ref !i in
      while !j < n && is_ident_char code.[!j] do
        incr j
      done;
      toks := (!i, String.sub code !i (!j - !i)) :: !toks;
      i := !j
    end
    else incr i
  done;
  Array.of_list (List.rev !toks)

let check_file file =
  let code, suppressed, allowed = strip (read_file file) in
  let findings = ref [] in
  let report i rule message =
    let line = line_of_offset code i in
    if (not (List.mem line suppressed)) && not (List.mem rule allowed) then
      findings := { file; line; rule; message } :: !findings
  in
  let n = String.length code in
  Array.iter
    (fun (i, tok) ->
      let qualified = prev_nonblank code i = '.' in
      match tok with
      | "compare" | "max" | "min" when not qualified ->
        report i "poly-compare"
          (Printf.sprintf
             "bare [%s] is the polymorphic Stdlib one; use [Int.%s] (or a \
              monomorphic equivalent)"
             tok tok)
      | "Hashtbl" ->
        report i "hashtbl"
          "generic [Hashtbl] on a hot path; use [Lk_engine.Int_table] for \
           int keys"
      | "Printf" ->
        report i "printf"
          "[Printf] on a hot path; report through [Stats]/[Ledger], or use \
           [Format] on cold paths"
      | _ -> ())
    (idents code);
  (* Comparison operators as function values: ( = ), (<>), ... *)
  let ops = [ "<>"; "<="; ">="; "="; "<"; ">" ] in
  let i = ref 0 in
  while !i < n do
    if code.[!i] = '(' then begin
      let j = ref (!i + 1) in
      while !j < n && (code.[!j] = ' ' || code.[!j] = '\t') do
        incr j
      done;
      List.iter
        (fun op ->
          let lo = String.length op in
          if !j + lo < n && String.sub code !j lo = op then begin
            let k = ref (!j + lo) in
            while !k < n && (code.[!k] = ' ' || code.[!k] = '\t') do
              incr k
            done;
            if !k < n && code.[!k] = ')' then begin
              report !i "poly-compare"
                (Printf.sprintf
                   "[(%s)] as a function value is the polymorphic compare; \
                    wrap a monomorphic comparison instead"
                   op);
              i := !k
            end
          end)
        ops
    end;
    incr i
  done;
  List.rev !findings

(* --- dead-export ---------------------------------------------------------

   A [val] of a library interface is dead when no file outside its own
   module (the [.ml]/[.mli] pair) references it. A reference is
   lexical: [M.v] (also through a [module X = ... M] alias), or a bare
   [v] in a file that opens or includes [M] ([open], [let open],
   [include] or a local [M.( ... )]). That over-approximates use (any
   bare [v] in such a file counts), so the rule never fails on a value
   in use; it fails on an export nothing can reach. *)

let reference_dirs =
  [ "lib"; "bin"; "bench"; "test"; "e2ebench"; "examples"; "tools" ]

let rec ocaml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then
           if f.[0] = '.' || f.[0] = '_' then [] else ocaml_files path
         else if
           Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
         then [ path ]
         else [])

(* A compilation unit: directory and module name. *)
let unit_of file =
  ( Filename.dirname file,
    String.capitalize_ascii (Filename.remove_extension (Filename.basename file))
  )

type uses = {
  unit_ : string * string;
  qualified : (string * string, unit) Hashtbl.t;  (* (M, v) for [M.v] *)
  bare : (string, unit) Hashtbl.t;
  opened : string list;  (* last path component of each opened module *)
}

let is_module tok = tok.[0] >= 'A' && tok.[0] <= 'Z'

let uses_of file =
  let code, _, _ = strip (read_file file) in
  let toks = idents code in
  let n = Array.length toks in
  let text k = snd toks.(k) in
  (* The code between tokens [k] and [k + 1], blanks trimmed. *)
  let gap k =
    let stop = fst toks.(k) + String.length (text k) in
    let next = if k + 1 < n then fst toks.(k + 1) else String.length code in
    String.trim (String.sub code stop (next - stop))
  in
  (* The last component of the module path [A.B.M] starting at token k. *)
  let rec path_end k =
    if k + 1 < n && gap k = "." && is_module (text (k + 1)) then
      path_end (k + 1)
    else text k
  in
  let aliases = Hashtbl.create 8 and opened = ref [] in
  let qualified = ref [] and bare = Hashtbl.create 256 in
  for k = 0 to n - 1 do
    let tok = text k in
    if k > 0 && gap (k - 1) = "." then
      qualified := (text (k - 1), tok) :: !qualified
    else Hashtbl.replace bare tok ();
    match tok with
    | ("open" | "include") when k + 1 < n && is_module (text (k + 1)) ->
      opened := path_end (k + 1) :: !opened
    | "module"
      when k + 2 < n
           && is_module (text (k + 1))
           && gap (k + 1) = "="
           && is_module (text (k + 2)) ->
      Hashtbl.replace aliases (text (k + 1)) (path_end (k + 2))
    | _ ->
      (* A local open: [M.( ... )], [M.{ ... }] or [M.[ ... ]]. *)
      let g = gap k in
      if
        is_module tok && String.length g >= 2 && g.[0] = '.'
        && String.contains "({[" g.[1]
      then opened := tok :: !opened
  done;
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  let q = Hashtbl.create 256 in
  List.iter
    (fun (m, v) ->
      Hashtbl.replace q (m, v) ();
      Hashtbl.replace q (resolve m, v) ())
    !qualified;
  {
    unit_ = unit_of file;
    qualified = q;
    bare;
    opened = List.concat_map (fun m -> [ m; resolve m ]) !opened;
  }

let dead_exports ~interfaces ~sources =
  let uses = List.map uses_of sources in
  List.concat_map
    (fun file ->
      let ((_, m) as unit_) = unit_of file in
      let code, suppressed, _ = strip (read_file file) in
      let referenced v =
        List.exists
          (fun u ->
            u.unit_ <> unit_
            && (Hashtbl.mem u.qualified (m, v)
               || (List.mem m u.opened && Hashtbl.mem u.bare v)))
          uses
      in
      let toks = idents code in
      let findings = ref [] in
      Array.iteri
        (fun k (i, tok) ->
          if tok = "val" && k + 1 < Array.length toks then begin
            let v = snd toks.(k + 1) and line = line_of_offset code i in
            if not (List.mem line suppressed || referenced v) then
              findings :=
                {
                  file;
                  line;
                  rule = "dead-export";
                  message =
                    Printf.sprintf
                      "[%s.%s] is exported but nothing outside %s \
                       references it; drop it from the interface (and the \
                       definition if %s does not use it)"
                      m v m m;
                }
                :: !findings
          end)
        toks;
      List.rev !findings)
    interfaces

let () =
  let root =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else Filename.current_dir_name
  in
  let files =
    List.concat_map
      (fun dir ->
        let abs = Filename.concat root dir in
        if not (Sys.file_exists abs) then begin
          Printf.eprintf "lint: missing directory %s\n" abs;
          exit 2
        end;
        Sys.readdir abs |> Array.to_list |> List.sort String.compare
        |> List.filter (fun f -> Filename.check_suffix f ".ml")
        |> List.map (Filename.concat abs))
      scanned_dirs
  in
  let sources dir =
    let abs = Filename.concat root dir in
    if Sys.file_exists abs then ocaml_files abs else []
  in
  let interfaces =
    List.filter (fun f -> Filename.check_suffix f ".mli") (sources "lib")
  in
  let findings =
    List.concat_map check_file files
    @ dead_exports ~interfaces ~sources:(List.concat_map sources reference_dirs)
  in
  List.iter
    (fun f ->
      Printf.printf "%s:%d: %s: %s\n" f.file f.line f.rule f.message)
    findings;
  if findings = [] then begin
    Printf.printf "lint: %d files and %d interfaces clean\n" (List.length files)
      (List.length interfaces);
    exit 0
  end
  else begin
    Printf.printf "lint: %d finding(s)\n" (List.length findings);
    exit 1
  end
