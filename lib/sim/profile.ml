(* Causal abort profiler: a streaming fold of the event ledger into a
   who-killed-whom graph plus wasted-work accounting. See the .mli for
   the model. [feed] runs on the ledger's tap — the simulator's emit
   path — so everything below it is fixed preallocated int arrays; the
   renderers at the bottom run after the simulation and allocate
   freely. *)

module Ledger = Lk_engine.Ledger
module Reason = Lk_htm.Reason

type t = {
  cores : int;
  (* Kill matrix, row-major: [(aggressor + 1) * cores + victim]. Row 0
     is the environmental pseudo-aggressor (-1). *)
  matrix : int array;
  (* Per-core accumulators. *)
  aborts_of : int array;
  wasted_arr : int array;
  commits_of : int array;
  (* Kill-chain depth per core (0 = not currently a victim); the max
     observed is the report's chain depth. *)
  depth : int array;
  reason_aborts : int array;
  reason_wasted : int array;
  (* Begin time of the core's current attempt (-1 outside one), from
     the begin events — feeds the commit critical-path estimate. *)
  begin_time : int array;
  (* Fallback-lock stream state. *)
  lock_since : int array;
  mutable last_holder : int;
  mutable holder_run : int;
  mutable best_run : int;
  mutable best_run_core : int;
  mutable acquisitions : int;
  mutable handoffs : int;
  mutable dwell_total : int;
  mutable dwell_max : int;
  (* Scalars. *)
  mutable total_aborts : int;
  mutable environmental : int;
  mutable wasted : int;
  mutable discarded_writes : int;
  mutable max_depth : int;
  mutable commits : int;
  mutable nacks : int;
  mutable rejects : int;
  mutable protocol_kills : int;
  mutable parks : int;
  mutable wakes : int;
  mutable sw_commits : int;
  mutable sw_aborts : int;
  mutable clock_advances : int;
  mutable last_commit : int;
  mutable serial_commit : int;
  mutable dropped : int;
}

let create ~cores =
  if cores <= 0 then invalid_arg "Profile.create: cores must be positive";
  {
    cores;
    matrix = Array.make ((cores + 1) * cores) 0;
    aborts_of = Array.make cores 0;
    wasted_arr = Array.make cores 0;
    commits_of = Array.make cores 0;
    depth = Array.make cores 0;
    reason_aborts = Array.make Reason.count 0;
    reason_wasted = Array.make Reason.count 0;
    begin_time = Array.make cores (-1);
    lock_since = Array.make cores (-1);
    last_holder = -1;
    holder_run = 0;
    best_run = 0;
    best_run_core = -1;
    acquisitions = 0;
    handoffs = 0;
    dwell_total = 0;
    dwell_max = 0;
    total_aborts = 0;
    environmental = 0;
    wasted = 0;
    discarded_writes = 0;
    max_depth = 0;
    commits = 0;
    nacks = 0;
    rejects = 0;
    protocol_kills = 0;
    parks = 0;
    wakes = 0;
    sw_commits = 0;
    sw_aborts = 0;
    clock_advances = 0;
    last_commit = 0;
    serial_commit = 0;
    dropped = 0;
  }

let dropped t = t.dropped

(* One abort edge: self-contained (aggressor and age ride in the packed
   arg), so totals are exact under the streaming tap and survive ring
   wraparound for every record that itself survives. *)
let abort_edge t ~core ~arg =
  let reason = Ledger.abort_reason arg in
  let who = Ledger.abort_who arg in
  let age = Ledger.abort_age arg in
  t.total_aborts <- t.total_aborts + 1;
  t.aborts_of.(core) <- t.aborts_of.(core) + 1;
  t.wasted <- t.wasted + age;
  t.wasted_arr.(core) <- t.wasted_arr.(core) + age;
  if reason >= 0 && reason < Reason.count then begin
    t.reason_aborts.(reason) <- t.reason_aborts.(reason) + 1;
    t.reason_wasted.(reason) <- t.reason_wasted.(reason) + age
  end;
  let who = if who >= 0 && who < t.cores then who else -1 in
  if who < 0 then t.environmental <- t.environmental + 1;
  let idx = ((who + 1) * t.cores) + core in
  t.matrix.(idx) <- t.matrix.(idx) + 1;
  (* Chain depth: the victim inherits the aggressor's depth + 1 (an
     environmental kill starts a chain of depth 1); commits reset. *)
  let d = if who >= 0 then t.depth.(who) + 1 else 1 in
  t.depth.(core) <- d;
  if d > t.max_depth then t.max_depth <- d;
  t.begin_time.(core) <- -1

let commit_event t ~time ~core =
  t.commits <- t.commits + 1;
  t.commits_of.(core) <- t.commits_of.(core) + 1;
  t.depth.(core) <- 0;
  let b = t.begin_time.(core) in
  if b >= 0 then begin
    (* Non-overlapped portion of this committed attempt: work after the
       previous commit's serialization point cannot have run in its
       shadow, so it lower-bounds the run's serial spine. *)
    let from = if t.last_commit > b then t.last_commit else b in
    if time > from then t.serial_commit <- t.serial_commit + (time - from)
  end;
  if time > t.last_commit then t.last_commit <- time;
  t.begin_time.(core) <- -1

let feed t ~time ~core ~kind ~arg =
  match (kind : Ledger.kind) with
  | Ledger.Tx_begin | Ledger.Hl_begin | Ledger.Sw_begin ->
    t.begin_time.(core) <- time
  | Ledger.Tx_abort -> abort_edge t ~core ~arg
  | Ledger.Sw_abort ->
    t.sw_aborts <- t.sw_aborts + 1;
    abort_edge t ~core ~arg
  | Ledger.Tx_commit | Ledger.Hl_end -> commit_event t ~time ~core
  | Ledger.Sw_commit ->
    t.sw_commits <- t.sw_commits + 1;
    commit_event t ~time ~core
  | Ledger.Nack -> t.nacks <- t.nacks + 1
  | Ledger.Reject -> t.rejects <- t.rejects + 1
  | Ledger.Abort_kill -> t.protocol_kills <- t.protocol_kills + 1
  | Ledger.Spec_discard ->
    t.discarded_writes <- t.discarded_writes + Ledger.discard_writes arg
  | Ledger.Lock_acquire ->
    t.acquisitions <- t.acquisitions + 1;
    t.lock_since.(core) <- time;
    if core = t.last_holder then t.holder_run <- t.holder_run + 1
    else begin
      if t.last_holder >= 0 then t.handoffs <- t.handoffs + 1;
      t.last_holder <- core;
      t.holder_run <- 1
    end;
    if t.holder_run > t.best_run then begin
      t.best_run <- t.holder_run;
      t.best_run_core <- core
    end
  | Ledger.Lock_release ->
    let since = t.lock_since.(core) in
    if since >= 0 then begin
      let d = time - since in
      t.dwell_total <- t.dwell_total + d;
      if d > t.dwell_max then t.dwell_max <- d;
      t.lock_since.(core) <- -1
    end
  | Ledger.Park -> t.parks <- t.parks + 1
  | Ledger.Wake -> t.wakes <- t.wakes + 1
  | Ledger.Clock_advance -> t.clock_advances <- t.clock_advances + 1
  | Ledger.Switch_granted | Ledger.Switch_denied | Ledger.Spill
  | Ledger.Spec_publish ->
    ()

let attach t ledger =
  Ledger.set_tap ledger
    (Some (fun ~time ~core ~kind ~arg -> feed t ~time ~core ~kind ~arg))

let of_ledger ~cores ledger =
  let t = create ~cores in
  t.dropped <- Ledger.dropped ledger;
  Ledger.iter ledger (fun ~time ~core ~kind ~arg ->
      feed t ~time ~core ~kind ~arg);
  t

(* --- Accessors --------------------------------------------------------- *)

let total_aborts t = t.total_aborts
let attributed t = t.total_aborts - t.environmental
let environmental t = t.environmental

let killed_by t ~victim = t.aborts_of.(victim)

let kills_of t ~aggressor =
  let sum = ref 0 in
  for v = 0 to t.cores - 1 do
    sum := !sum + t.matrix.(((aggressor + 1) * t.cores) + v)
  done;
  !sum

let top_pairs t ~k =
  let pairs = ref [] in
  for a = -1 to t.cores - 1 do
    for v = 0 to t.cores - 1 do
      let n = t.matrix.(((a + 1) * t.cores) + v) in
      if n > 0 then pairs := (a, v, n) :: !pairs
    done
  done;
  let sorted =
    List.sort
      (fun (a1, v1, n1) (a2, v2, n2) ->
        if n1 <> n2 then compare n2 n1
        else if a1 <> a2 then compare a1 a2
        else compare v1 v2)
      !pairs
  in
  List.filteri (fun i _ -> i < k) sorted

let wasted t = t.wasted
let wasted_of t ~core = t.wasted_arr.(core)
let wasted_by_reason t r = t.reason_wasted.(Reason.index r)
let discarded_writes t = t.discarded_writes
let max_chain_depth t = t.max_depth
let commits t = t.commits
let serial_commit_cycles t = t.serial_commit
let nacks t = t.nacks
let rejects t = t.rejects
let protocol_kills t = t.protocol_kills

let abort_mix t =
  List.map (fun r -> (r, t.reason_aborts.(Reason.index r))) Reason.all

let parks t = t.parks
let wakes t = t.wakes
let sw_commits t = t.sw_commits
let sw_aborts t = t.sw_aborts
let clock_advances t = t.clock_advances
let lock_acquisitions t = t.acquisitions
let lock_handoffs t = t.handoffs

(* --- Renderers --------------------------------------------------------- *)

let who_label a = if a < 0 then "env" else "core" ^ string_of_int a

let to_text t =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  if t.dropped > 0 then
    line "WARNING: %d ledger record(s) dropped before the fold; totals cover the retained suffix only"
      t.dropped;
  line "causal abort profile (%d cores)" t.cores;
  line "  aborts         %d (%d attributed, %d environmental)"
    t.total_aborts (attributed t) t.environmental;
  line "  commits        %d" t.commits;
  line "  wasted cycles  %d" t.wasted;
  line "  discarded speculative writes  %d" t.discarded_writes;
  line "  nacks %d  rejects %d  protocol kills %d" t.nacks t.rejects
    t.protocol_kills;
  line "  kill-chain depth (max)  %d" t.max_depth;
  line "  commit critical path    %d cycles" t.serial_commit;
  line "wasted by reason:";
  List.iter
    (fun r ->
      let w = wasted_by_reason t r in
      if w > 0 then line "  %-10s %d" (Reason.label r) w)
    Reason.all;
  let top = top_pairs t ~k:10 in
  if top <> [] then begin
    line "top aggressor -> victim pairs:";
    List.iter
      (fun (a, v, n) -> line "  %-7s -> core%-3d  %d" (who_label a) v n)
      top
  end;
  line "per-core:";
  line "  core  aborts  commits  wasted  inflicted";
  for c = 0 to t.cores - 1 do
    if t.aborts_of.(c) > 0 || t.commits_of.(c) > 0 || kills_of t ~aggressor:c > 0
    then
      line "  %4d  %6d  %7d  %6d  %9d" c t.aborts_of.(c) t.commits_of.(c)
        t.wasted_arr.(c)
        (kills_of t ~aggressor:c)
  done;
  if t.acquisitions > 0 then begin
    line "fallback lock:";
    line "  acquisitions %d  handoffs %d  longest run %d (core %d)"
      t.acquisitions t.handoffs t.best_run t.best_run_core;
    line "  dwell total %d  max %d  mean %.1f" t.dwell_total t.dwell_max
      (float_of_int t.dwell_total /. float_of_int t.acquisitions)
  end;
  Buffer.contents buf

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "aggressor,victim,count,victim_wasted\n";
  for a = -1 to t.cores - 1 do
    for v = 0 to t.cores - 1 do
      let n = t.matrix.(((a + 1) * t.cores) + v) in
      if n > 0 then
        Buffer.add_string buf
          (Printf.sprintf "%d,%d,%d,%d\n" a v n t.wasted_arr.(v))
    done
  done;
  Buffer.contents buf

let to_json_value t =
  let ints arr = Json.List (Array.to_list (Array.map (fun v -> Json.Int v) arr)) in
  let edges =
    let out = ref [] in
    for a = t.cores - 1 downto -1 do
      for v = t.cores - 1 downto 0 do
        let n = t.matrix.(((a + 1) * t.cores) + v) in
        if n > 0 then
          out :=
            Json.Obj
              [
                ("aggressor", Json.Int a);
                ("victim", Json.Int v);
                ("count", Json.Int n);
              ]
            :: !out
      done
    done;
    Json.List !out
  in
  Json.Obj
    [
      ("cores", Json.Int t.cores);
      ("dropped", Json.Int t.dropped);
      ("aborts", Json.Int t.total_aborts);
      ("attributed", Json.Int (attributed t));
      ("environmental", Json.Int t.environmental);
      ("commits", Json.Int t.commits);
      ("wasted_cycles", Json.Int t.wasted);
      ( "wasted_by_reason",
        Json.Obj
          (List.map
             (fun r -> (Reason.label r, Json.Int (wasted_by_reason t r)))
             Reason.all) );
      ("discarded_writes", Json.Int t.discarded_writes);
      ("nacks", Json.Int t.nacks);
      ("rejects", Json.Int t.rejects);
      ("protocol_kills", Json.Int t.protocol_kills);
      ("max_chain_depth", Json.Int t.max_depth);
      ("serial_commit_cycles", Json.Int t.serial_commit);
      ("aborts_per_core", ints t.aborts_of);
      ("commits_per_core", ints t.commits_of);
      ("wasted_per_core", ints t.wasted_arr);
      ("kill_edges", edges);
      ( "lock",
        Json.Obj
          [
            ("acquisitions", Json.Int t.acquisitions);
            ("handoffs", Json.Int t.handoffs);
            ("longest_run", Json.Int t.best_run);
            ("longest_run_core", Json.Int t.best_run_core);
            ("dwell_total", Json.Int t.dwell_total);
            ("dwell_max", Json.Int t.dwell_max);
          ] );
    ]

let to_json t = Json.to_string_pretty (to_json_value t)
