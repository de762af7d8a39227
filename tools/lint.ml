(* Hot-path lint for the simulator's inner-loop libraries.

   The event engine, the coherence protocol, the HTM value layer, the
   LockillerTM runtime and the cores run once per simulated message or
   event; a polymorphic comparison, a generic
   [Hashtbl] or a [Printf] that sneaks into them costs real time (and,
   for [compare] on abstract types, correctness risk). dune cannot
   express "this library must not use these Stdlib identifiers", so
   this is a small checker:

     - poly-compare (typed): read from each scanned file's typed tree
       ([.cmt]), so it runs on a built tree ([dune build @tools/lint]).
       [Stdlib.compare] / [min] / [max] at any type (use [Int.compare],
       [Int.max], [Int.min] — monomorphic and inlined), and the six
       comparison operators, infix or as function values, wherever
       the operand type is one the compiler cannot specialise: a type
       variable, an option, a tuple, a record, a list. [int], [char],
       [bool], constant-only variants, [float], [string], [bytes] and
       the boxed ints pass, and so does [=]/[<>] against a constant
       constructor ([x <> None] is a pointer test). A scanned file with
       no typed tree, or a stale one, is a finding.
     - hashtbl: any use of [Hashtbl] (use [Lk_engine.Int_table] for
       int keys; generic hashing allocates and calls through [compare]).
     - printf: any use of [Printf] (hot code reports through [Stats] /
       [Ledger]; diagnostics use [Format] or string concatenation on
       cold paths).
     - dead-export: a [val] in any [lib/**/*.mli] that no file outside
       its own module references (see [dead_exports] below). Unlike the
       three rules above, it covers every library, not only the hot
       ones.

   The hashtbl, printf and dead-export rules are lexical: comments and
   string literals are stripped before matching, so prose mentioning
   the forbidden identifiers is fine. Suppression, for every rule:
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
  Array.iter
    (fun (i, tok) ->
      match tok with
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
  List.rev !findings

(* --- poly-compare (typed) ------------------------------------------------

   Reads the typed tree ([.cmt]) of each scanned [.ml] and looks at every
   reference to [Stdlib.compare]/[min]/[max] (flagged at any type) and to
   the six comparison operators (flagged where the compiler cannot
   specialise them). [ocamlopt] turns [a = b] into an integer, float,
   string or boxed-int comparison only when the operand type is
   immediate ([int], [char], [bool], constant-only variants) or one of
   those base types; at a type variable, an option, a tuple, a record
   or a list it calls the polymorphic [caml_equal]/[compare_val]
   through [caml_c_call]. The typed tree sees what no lexical scan can:
   [x = y] whose operands were inferred ['a], and [(=)] passed as a
   function value. The operand type is judged in the environment of
   the expression, rebuilt from the [.cmt]'s summary, so an abstract
   type whose manifest is [int] passes like [int]. *)

let specialisable env ty =
  Typeopt.maybe_pointer_type env ty = Lambda.Immediate
  || List.exists (Typeopt.is_base_type env ty)
       Predef.
         [ path_float; path_string; path_bytes; path_int32; path_int64;
           path_nativeint ]

let type_to_string ty = Format.asprintf "%a" Printtyp.type_expr ty

(* The poly-compare findings of one implementation's typed tree, as
   (line, message). *)
let typed_sites (cmt : Cmt_format.cmt_infos) ~root structure =
  Load_path.init ~auto_include:Load_path.no_auto_include
    (List.map
       (fun d -> if Filename.is_relative d then Filename.concat root d else d)
       cmt.cmt_loadpath
    @ [ Config.standard_library ]);
  Envaux.reset_cache ();
  let sites = ref [] in
  let flag (e : Typedtree.expression) message =
    sites := (e.exp_loc.loc_start.pos_lnum, message) :: !sites
  in
  let check (e : Typedtree.expression) path =
    match Path.name path with
    | "Stdlib.compare" | "Stdlib.min" | "Stdlib.max" ->
      let f = Path.last path in
      flag e
        (Printf.sprintf
           "bare [%s] is the polymorphic Stdlib one; use [Int.%s] (or a \
            monomorphic equivalent)"
           f f)
    | "Stdlib.=" | "Stdlib.<>" | "Stdlib.<" | "Stdlib.>" | "Stdlib.<="
    | "Stdlib.>=" -> (
      let op = Path.last path in
      let env =
        (* Without the environment an abstract type reads as a
           pointer: the rule errs towards flagging. *)
        try Envaux.env_of_only_summary e.exp_env
        with Envaux.Error _ -> Env.empty
      in
      match Typeopt.is_function_type env e.exp_type with
      | Some (arg, _) when not (specialisable env arg) ->
        flag e
          (Printf.sprintf
             "[%s] at type [%s] is the polymorphic compare (a C call per \
              use); annotate the operands with a base type or use a \
              monomorphic comparison"
             op (type_to_string arg))
      | _ -> ())
    | _ -> ()
  in
  (* [x = None], [l <> []]: an equality against a constant constructor
     compiles to a pointer test whatever the type, as in [Translcore]. *)
  let constant_arg (_, arg) =
    match arg with
    | Some { Typedtree.exp_desc = Texp_construct (_, cstr, _); _ } -> (
      match cstr.cstr_tag with Cstr_constant _ -> true | _ -> false)
    | Some { exp_desc = Texp_variant (_, None); _ } -> true
    | _ -> false
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, args)
            when List.mem (Path.name path) [ "Stdlib.="; "Stdlib.<>" ]
                 && List.exists constant_arg args ->
            List.iter (function _, Some a -> sub.expr sub a | _ -> ()) args
          | Texp_ident (path, _, _) -> check e path
          | _ -> Tast_iterator.default_iterator.expr sub e);
    }
  in
  iter.structure iter structure;
  List.rev !sites

(* Every [.cmt] under [dir]: dune keeps them in [.<lib>.objs/byte/], a
   plain [ocamlc -bin-annot] next to the source. *)
let cmt_files dir =
  let cmts d =
    if Sys.file_exists d && Sys.is_directory d then
      Sys.readdir d |> Array.to_list |> List.sort String.compare
      |> List.filter (fun f -> Filename.check_suffix f ".cmt")
      |> List.map (Filename.concat d)
    else []
  in
  let objs =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f -> Filename.check_suffix f ".objs")
  in
  cmts dir
  @ List.concat_map (fun o -> cmts (Filename.concat (Filename.concat dir o) "byte")) objs

(* The typed poly-compare findings of the scanned [files] of [dir]
   (paths under [root]). A scanned file without a typed tree, or with
   one older than its source, is itself a finding: the rule must not
   pass by reading nothing. *)
let typed_findings ~root dir files =
  let trees =
    List.filter_map
      (fun cmt_file ->
        let cmt = Cmt_format.read_cmt cmt_file in
        match (cmt.cmt_sourcefile, cmt.cmt_annots) with
        | Some src, Implementation str ->
          Some (Filename.concat root src, (cmt, str))
        | _ -> None)
      (cmt_files dir)
  in
  List.concat_map
    (fun file ->
      let finding line message =
        { file; line; rule = "poly-compare"; message }
      in
      match List.assoc_opt file trees with
      | None ->
        [
          finding 1
            "no typed tree (.cmt) for this file; run the lint on a built \
             tree (dune build @tools/lint)";
        ]
      | Some (cmt, _) when cmt.cmt_source_digest <> Some (Digest.file file) ->
        [ finding 1 "the typed tree (.cmt) is older than the source; rebuild it" ]
      | Some (cmt, str) ->
        let _, suppressed, allowed = strip (read_file file) in
        if List.mem "poly-compare" allowed then []
        else
          typed_sites cmt ~root str
          |> List.filter (fun (line, _) -> not (List.mem line suppressed))
          |> List.map (fun (line, message) -> finding line message))
    files

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
  let scanned =
    List.map
      (fun dir ->
        let abs = Filename.concat root dir in
        if not (Sys.file_exists abs) then begin
          Printf.eprintf "lint: missing directory %s\n" abs;
          exit 2
        end;
        ( abs,
          Sys.readdir abs |> Array.to_list |> List.sort String.compare
          |> List.filter (fun f -> Filename.check_suffix f ".ml")
          |> List.map (Filename.concat abs) ))
      scanned_dirs
  in
  let files = List.concat_map snd scanned in
  let sources dir =
    let abs = Filename.concat root dir in
    if Sys.file_exists abs then ocaml_files abs else []
  in
  let interfaces =
    List.filter (fun f -> Filename.check_suffix f ".mli") (sources "lib")
  in
  let by_position a b =
    match String.compare a.file b.file with 0 -> Int.compare a.line b.line | c -> c
  in
  let findings =
    List.stable_sort by_position
      (List.concat_map check_file files
      @ List.concat_map (fun (dir, fs) -> typed_findings ~root dir fs) scanned)
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
