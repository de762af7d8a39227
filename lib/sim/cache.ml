module Sysconf = Lk_lockiller.Sysconf
module Workload = Lk_stamp.Workload

(* The version lives in [Schema] (single source of truth with the
   result-JSON codec; schema.ml keeps the migration trail).
   Entries live under a per-schema directory, so entries from another
   version are simply never read again ([cache stats] counts them as
   stale, [cache clear] removes them). *)
let schema_version = Schema.version_string

type t = {
  root : string;
  schema : string;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
}

let default_dir () =
  match Sys.getenv_opt "LOCKILLER_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "lockiller"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" ->
        Filename.concat (Filename.concat h ".cache") "lockiller"
      | _ -> ".lockiller-cache"))

let create ?(schema = schema_version) ~dir () =
  { root = dir; schema; hits = 0; misses = 0; stores = 0 }

let dir t = t.root
let schema_dir t = Filename.concat t.root ("v" ^ t.schema)
let entry_path t key = Filename.concat (schema_dir t) (key ^ ".json")
let counters_path t = Filename.concat (schema_dir t) "counters"

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

(* --- keys --------------------------------------------------------------- *)

let workload_fingerprint (w : Workload.profile) =
  let range (lo, hi) = Printf.sprintf "%d-%d" lo hi in
  Printf.sprintf
    "name=%s txs=%d reads=%s writes=%s hot=%d hot_frac=%.17g zipf=%.17g \
     shared=%d private=%d compute=%d pre=%s post=%s fault=%.17g barrier=%s"
    w.Workload.name w.Workload.txs_per_thread (range w.Workload.reads_per_tx)
    (range w.Workload.writes_per_tx)
    w.Workload.hot_lines w.Workload.hot_fraction w.Workload.zipf_skew
    w.Workload.shared_lines w.Workload.private_lines w.Workload.compute_per_op
    (range w.Workload.pre_compute)
    (range w.Workload.post_compute)
    w.Workload.fault_prob
    (match w.Workload.barrier_every with
    | None -> "none"
    | Some k -> string_of_int k)

let sysconf_fingerprint (s : Sysconf.t) =
  (* The name distinguishes the predefined Table II systems (and the
     ablation extras); the printed composition catches edits to a
     system's knobs between versions. *)
  Printf.sprintf "%s [%s]" s.Sysconf.name (Format.asprintf "%a" Sysconf.pp s)

let fingerprint ~schema ~(options : Runner.options) ~sysconf ~workload
    ~threads =
  String.concat "\n"
    [
      "schema=" ^ schema;
      Printf.sprintf "seed=%d" options.Runner.seed;
      Printf.sprintf "scale=%.17g" options.Runner.scale;
      "machine=" ^ Config.fingerprint options.Runner.machine;
      (match options.Runner.placement with
      | Runner.Compact -> "placement=compact"
      | Runner.Spread -> "placement=spread");
      Printf.sprintf "cycle_limit=%d" options.Runner.cycle_limit;
      "sysconf=" ^ sysconf_fingerprint sysconf;
      "workload=" ^ workload_fingerprint workload;
      Printf.sprintf "threads=%d" threads;
    ]

let key t ~options ~sysconf ~workload ~threads =
  Digest.to_hex
    (Digest.string
       (fingerprint ~schema:t.schema ~options ~sysconf ~workload ~threads))

(* --- lookup / store ----------------------------------------------------- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let contents =
      try Some (really_input_string ic (in_channel_length ic))
      with _ -> None
    in
    close_in_noerr ic;
    contents

let find t key =
  let path = entry_path t key in
  match read_file path with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some contents -> (
    match Runner.result_of_json contents with
    | Ok r ->
      t.hits <- t.hits + 1;
      Some r
    | Error _ ->
      (* Corrupt entry (torn write, hand edit): drop it and re-simulate. *)
      (try Sys.remove path with Sys_error _ -> ());
      t.misses <- t.misses + 1;
      None)

let store t key r =
  t.stores <- t.stores + 1;
  let path = entry_path t key in
  mkdir_p (Filename.dirname path);
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  match open_out_bin tmp with
  | exception Sys_error _ -> ()
  | oc ->
    let ok =
      try
        output_string oc (Runner.result_to_json r);
        output_char oc '\n';
        true
      with Sys_error _ -> false
    in
    close_out_noerr oc;
    if ok then (
      try Sys.rename tmp path
      with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))
    else try Sys.remove tmp with Sys_error _ -> ()

let hits t = t.hits
let misses t = t.misses
let stores t = t.stores

(* --- cumulative counters ------------------------------------------------ *)

let read_counters path =
  match read_file path with
  | None -> (0, 0, 0)
  | Some s -> (
    match
      String.split_on_char '\n' s
      |> List.filter_map (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ k; v ] -> (
               match int_of_string_opt v with
               | Some n -> Some (k, n)
               | None -> None)
             | _ -> None)
    with
    | pairs ->
      let get k =
        match List.assoc_opt k pairs with Some n -> n | None -> 0
      in
      (get "hits", get "misses", get "stores"))

let persist_counters t =
  if t.hits + t.misses + t.stores > 0 then begin
    let path = counters_path t in
    mkdir_p (Filename.dirname path);
    let h, m, s = read_counters path in
    (try
       let oc = open_out path in
       Printf.fprintf oc "hits %d\nmisses %d\nstores %d\n" (h + t.hits)
         (m + t.misses) (s + t.stores);
       close_out_noerr oc
     with Sys_error _ -> ());
    t.hits <- 0;
    t.misses <- 0;
    t.stores <- 0
  end

(* --- inspection / eviction ---------------------------------------------- *)

type disk_stats = {
  entries : int;
  bytes : int;
  stale_entries : int;
  lifetime_hits : int;
  lifetime_misses : int;
  lifetime_stores : int;
}

let is_entry name = Filename.check_suffix name ".json"

let schema_dirs t =
  match Sys.readdir t.root with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun n ->
           String.length n > 1
           && n.[0] = 'v'
           && Sys.is_directory (Filename.concat t.root n))
    |> List.sort compare

let disk_stats t =
  let current = "v" ^ t.schema in
  let entries = ref 0 and bytes = ref 0 and stale = ref 0 in
  List.iter
    (fun sub ->
      let subdir = Filename.concat t.root sub in
      match Sys.readdir subdir with
      | exception Sys_error _ -> ()
      | names ->
        Array.iter
          (fun name ->
            if is_entry name then
              if sub = current then begin
                incr entries;
                match Unix.stat (Filename.concat subdir name) with
                | exception Unix.Unix_error _ -> ()
                | st -> bytes := !bytes + st.Unix.st_size
              end
              else incr stale)
          names)
    (schema_dirs t);
  let h, m, s = read_counters (counters_path t) in
  {
    entries = !entries;
    bytes = !bytes;
    stale_entries = !stale;
    lifetime_hits = h + t.hits;
    lifetime_misses = m + t.misses;
    lifetime_stores = s + t.stores;
  }

let clear t =
  let removed = ref 0 in
  List.iter
    (fun sub ->
      let subdir = Filename.concat t.root sub in
      (match Sys.readdir subdir with
      | exception Sys_error _ -> ()
      | names ->
        Array.iter
          (fun name ->
            let path = Filename.concat subdir name in
            if is_entry name then (
              try
                Sys.remove path;
                incr removed
              with Sys_error _ -> ())
            else if name = "counters" then
              try Sys.remove path with Sys_error _ -> ())
          names);
      try Sys.rmdir subdir with Sys_error _ -> ())
    (schema_dirs t);
  !removed
