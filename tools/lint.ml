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

   Comments and string literals are stripped before matching, so
   prose mentioning the forbidden identifiers is fine. Suppression:
   append [lint-ok] in a comment on the offending line, or grant a
   file-wide waiver with a [lint: allow <rule>] pragma comment (the
   pragma must state why). *)

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

let check_file file =
  let src =
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let code, suppressed, allowed = strip src in
  let findings = ref [] in
  let report i rule message =
    let line = line_of_offset code i in
    if (not (List.mem line suppressed)) && not (List.mem rule allowed) then
      findings := { file; line; rule; message } :: !findings
  in
  let n = String.length code in
  (* Identifier tokens. *)
  let i = ref 0 in
  while !i < n do
    if
      is_ident_char code.[!i]
      && ((!i = 0) || not (is_ident_char code.[!i - 1]))
    then begin
      let j = ref !i in
      while !j < n && is_ident_char code.[!j] do
        incr j
      done;
      let tok = String.sub code !i (!j - !i) in
      let qualified = prev_nonblank code !i = '.' in
      (match tok with
      | "compare" | "max" | "min" when not qualified ->
        report !i "poly-compare"
          (Printf.sprintf
             "bare [%s] is the polymorphic Stdlib one; use [Int.%s] (or a \
              monomorphic equivalent)"
             tok tok)
      | "Hashtbl" ->
        report !i "hashtbl"
          "generic [Hashtbl] on a hot path; use [Lk_engine.Int_table] for \
           int keys"
      | "Printf" ->
        report !i "printf"
          "[Printf] on a hot path; report through [Stats]/[Ledger], or use \
           [Format] on cold paths"
      | _ -> ());
      i := !j
    end
    else incr i
  done;
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
  let findings = List.concat_map check_file files in
  List.iter
    (fun f ->
      Printf.printf "%s:%d: %s: %s\n" f.file f.line f.rule f.message)
    findings;
  if findings = [] then begin
    Printf.printf "lint: %d files clean\n" (List.length files);
    exit 0
  end
  else begin
    Printf.printf "lint: %d finding(s)\n" (List.length findings);
    exit 1
  end
