module Ledger = Lk_engine.Ledger
module Reason = Lk_htm.Reason

let reason_of_index =
  let arr = Array.of_list Reason.all in
  fun i -> if i >= 0 && i < Array.length arr then Some arr.(i) else None

(* The reason label of a [Tx_abort] or [Sw_abort] argument. *)
let reason_label arg =
  match reason_of_index (Ledger.abort_reason arg) with
  | Some r -> Reason.label r
  | None -> "?"

let breakdown_table ?(title = "Abort breakdown") p =
  let aborts = Profile.total_aborts p in
  let share n =
    if aborts = 0 then "-" else Report.pct (float_of_int n /. float_of_int aborts)
  in
  let rows =
    List.map
      (fun (r, n) -> [ Reason.label r; string_of_int n; share n ])
      (Profile.abort_mix p)
    @ [ [ "total"; string_of_int aborts; share aborts ] ]
  in
  let sw_commits = Profile.sw_commits p
  and sw_aborts = Profile.sw_aborts p
  and clock_advances = Profile.clock_advances p in
  let notes =
    [
      Printf.sprintf
        "conflict traffic: %d nacks, %d kills, %d rejects, %d parks, %d wakes"
        (Profile.nacks p) (Profile.protocol_kills p) (Profile.rejects p)
        (Profile.parks p) (Profile.wakes p);
    ]
    @ (if sw_commits = 0 && sw_aborts = 0 && clock_advances = 0 then []
       else
         [
           Printf.sprintf
             "software path: %d commits, %d aborts, %d clock advances"
             sw_commits sw_aborts clock_advances;
         ])
    @
    if Profile.dropped p = 0 then []
    else
      [
        Printf.sprintf
          "WARNING: %d ledger records dropped; counts are lower bounds"
          (Profile.dropped p);
      ]
  in
  Report.table ~notes ~title ~headers:[ "reason"; "aborts"; "share" ] rows

let json_of_breakdown p =
  Json.Obj
    [
      ("aborts", Json.Int (Profile.total_aborts p));
      ( "by_reason",
        Json.Obj
          (List.map
             (fun (r, n) -> (Reason.label r, Json.Int n))
             (Profile.abort_mix p)) );
      ("nacks", Json.Int (Profile.nacks p));
      ("kills", Json.Int (Profile.protocol_kills p));
      ("rejects", Json.Int (Profile.rejects p));
      ("parks", Json.Int (Profile.parks p));
      ("wakes", Json.Int (Profile.wakes p));
      ("sw_commits", Json.Int (Profile.sw_commits p));
      ("sw_aborts", Json.Int (Profile.sw_aborts p));
      ("clock_advances", Json.Int (Profile.clock_advances p));
      ("dropped", Json.Int (Profile.dropped p));
    ]

(* --- Perfetto export --------------------------------------------------- *)

let slice ~name ~ts ~dur ~tid ~args =
  Json.Obj
    ([
       ("name", Json.String name);
       ("ph", Json.String "X");
       ("ts", Json.Int ts);
       ("dur", Json.Int dur);
       ("pid", Json.Int 0);
       ("tid", Json.Int tid);
     ]
    @ match args with [] -> [] | a -> [ ("args", Json.Obj a) ])

let instant ~name ~ts ~tid ~args =
  Json.Obj
    ([
       ("name", Json.String name);
       ("ph", Json.String "i");
       ("s", Json.String "t");
       ("ts", Json.Int ts);
       ("pid", Json.Int 0);
       ("tid", Json.Int tid);
     ]
    @ match args with [] -> [] | a -> [ ("args", Json.Obj a) ])

(* Flow events: a "s"/"f" pair with one id draws an arrow from the
   aggressor's track to the victim's abort at the kill instant —
   Perfetto renders the who-killed-whom graph directly on the
   timeline. [bp:"e"] binds the finish to the enclosing slice. *)
let flow ~phase ~id ~ts ~tid =
  Json.Obj
    ([
       ("name", Json.String "kill");
       ("cat", Json.String "abort");
       ("ph", Json.String phase);
       ("id", Json.Int id);
       ("ts", Json.Int ts);
       ("pid", Json.Int 0);
       ("tid", Json.Int tid);
     ]
    @ if phase = "f" then [ ("bp", Json.String "e") ] else [])

let metadata ~name ~tid value =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int 0);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String value) ]);
    ]

(* A core's span tracks, indexed by [tx], [hl], [lock] and [sw]. A span
   still open when the ledger ends becomes the slice [name ^ " (open)"];
   [opening] labels the opening record's argument in the span's args
   (none: it is not shown); an end record with no open span becomes the
   instant [unmatched]. *)
type track = { name : string; opening : string option; unmatched : string }

let tx = 0
let hl = 1
let lock = 2
let sw = 3

let tracks =
  [|
    { name = "tx"; opening = Some "attempt"; unmatched = "commit" };
    { name = "hl"; opening = None; unmatched = "hlend" };
    { name = "lock"; opening = None; unmatched = "lock-release" };
    { name = "sw"; opening = Some "rv"; unmatched = "sw-commit" };
  |]

let perfetto_json ?telemetry l =
  let entries = Ledger.entries l in
  let cores =
    List.fold_left (fun m e -> max m (e.Ledger.core + 1)) 0 entries
  in
  let last_time = List.fold_left (fun m e -> max m e.Ledger.time) 0 entries in
  (* Per track and core: the open span's start time and opening
     argument. *)
  let spans = Array.map (fun _ -> Array.make (max cores 1) None) tracks in
  let events = ref [] in
  let push e = events := e :: !events in
  (* One fresh id per attributed abort edge, sequential in ledger
     order, so deterministic. *)
  let flow_seq = ref 0 in
  let push_kill_flow ~time ~aggressor ~victim =
    if aggressor >= 0 && aggressor <> victim then begin
      incr flow_seq;
      push (flow ~phase:"s" ~id:!flow_seq ~ts:time ~tid:aggressor);
      push (flow ~phase:"f" ~id:!flow_seq ~ts:time ~tid:victim)
    end
  in
  let opening track arg =
    match tracks.(track).opening with
    | Some label -> [ (label, Json.Int arg) ]
    | None -> []
  in
  (* The open span of [track] on [core] closes as the slice [name], its
     [args] after the opening argument; with none open, [unmatched] is
     pushed instead. *)
  let close track ~time ~core ~name ~args ~unmatched =
    match spans.(track).(core) with
    | Some (t0, a) ->
      spans.(track).(core) <- None;
      push
        (slice ~name ~ts:t0 ~dur:(time - t0) ~tid:core
           ~args:(opening track a @ args))
    | None -> push unmatched
  in
  let finish track ~time ~core ~name ~args =
    close track ~time ~core ~name ~args
      ~unmatched:
        (instant ~name:tracks.(track).unmatched ~ts:time ~tid:core ~args:[])
  in
  let abort track ~prefix ~time ~core arg =
    let label = reason_label arg and who = Ledger.abort_who arg in
    let name = prefix ^ label
    and args =
      [
        ("reason", Json.String label);
        ("by", Json.Int who);
        ("age", Json.Int (Ledger.abort_age arg));
      ]
    in
    close track ~time ~core ~name ~args
      ~unmatched:(instant ~name ~ts:time ~tid:core ~args);
    push_kill_flow ~time ~aggressor:who ~victim:core
  in
  List.iter
    (fun { Ledger.time; core; kind; arg } ->
      match kind with
      | Ledger.Tx_begin -> spans.(tx).(core) <- Some (time, arg)
      | Ledger.Hl_begin -> spans.(hl).(core) <- Some (time, arg)
      | Ledger.Lock_acquire -> spans.(lock).(core) <- Some (time, arg)
      | Ledger.Sw_begin -> spans.(sw).(core) <- Some (time, arg)
      | Ledger.Tx_commit ->
        finish tx ~time ~core ~name:"tx" ~args:[ ("attempts", Json.Int arg) ]
      | Ledger.Hl_end ->
        finish hl ~time ~core ~name:(if arg = 1 then "STL" else "TL") ~args:[]
      | Ledger.Lock_release -> finish lock ~time ~core ~name:"lock" ~args:[]
      | Ledger.Sw_commit ->
        finish sw ~time ~core ~name:"sw" ~args:[ ("wt", Json.Int arg) ]
      | Ledger.Tx_abort -> abort tx ~prefix:"abort:" ~time ~core arg
      | Ledger.Sw_abort -> abort sw ~prefix:"sw-abort:" ~time ~core arg
      | Ledger.Nack | Ledger.Reject | Ledger.Abort_kill ->
        push
          (instant ~name:(Ledger.kind_label kind) ~ts:time ~tid:core
             ~args:
               [
                 ("by", Json.Int (Ledger.attr_who arg));
                 ("age", Json.Int (Ledger.attr_age arg));
               ])
      | Ledger.Park | Ledger.Wake | Ledger.Switch_granted
      | Ledger.Switch_denied ->
        push (instant ~name:(Ledger.kind_label kind) ~ts:time ~tid:core ~args:[])
      | Ledger.Spill ->
        push
          (instant ~name:"spill" ~ts:time ~tid:core
             ~args:[ ("line", Json.Int arg) ])
      | Ledger.Spec_publish ->
        push
          (instant ~name:(Ledger.kind_label kind) ~ts:time ~tid:core
             ~args:[ ("writes", Json.Int arg) ])
      | Ledger.Spec_discard ->
        push
          (instant ~name:(Ledger.kind_label kind) ~ts:time ~tid:core
             ~args:
               [
                 ("writes", Json.Int (Ledger.discard_writes arg));
                 ("age", Json.Int (Ledger.discard_age arg));
               ])
      | Ledger.Clock_advance ->
        push
          (instant ~name:"clock" ~ts:time ~tid:core
             ~args:[ ("value", Json.Int arg) ]))
    entries;
  (* Anything still open when the ledger ends (e.g. a thread parked at
     simulation exit) is closed at the last recorded timestamp. *)
  Array.iteri
    (fun track open_spans ->
      Array.iteri
        (fun core -> function
          | Some (t0, a) ->
            push
              (slice
                 ~name:(tracks.(track).name ^ " (open)")
                 ~ts:t0 ~dur:(last_time - t0) ~tid:core
                 ~args:(opening track a))
          | None -> ())
        open_spans)
    spans;
  let meta =
    metadata ~name:"process_name" ~tid:0 "lockiller_sim"
    :: List.init cores (fun c ->
           metadata ~name:"thread_name" ~tid:c (Printf.sprintf "core %d" c))
  in
  let counters =
    match telemetry with
    | None -> []
    | Some tele -> Telemetry.perfetto_counters tele
  in
  Json.Obj [ ("traceEvents", Json.List (meta @ List.rev !events @ counters)) ]

let write_perfetto ?telemetry ~file l =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty (perfetto_json ?telemetry l));
      output_char oc '\n')

(* --- Human-readable lifecycle lines ------------------------------------ *)

(* " by N" for a record attributed to a core, [none] otherwise. *)
let by who ~none = if who >= 0 then Printf.sprintf " by %d" who else none

let event_label kind arg =
  let label = Ledger.kind_label kind in
  match kind with
  | Ledger.Tx_begin when arg > 0 -> Printf.sprintf "%s retry %d" label arg
  | Ledger.Tx_abort | Ledger.Sw_abort ->
    label ^ ":" ^ reason_label arg ^ by (Ledger.abort_who arg) ~none:""
  | Ledger.Nack | Ledger.Reject ->
    label ^ by (Ledger.attr_who arg) ~none:" by llc"
  | Ledger.Abort_kill -> label ^ by (Ledger.attr_who arg) ~none:""
  | Ledger.Hl_end -> label ^ if arg = 1 then " stl" else " tl"
  | Ledger.Spill | Ledger.Spec_publish | Ledger.Sw_begin | Ledger.Sw_commit
  | Ledger.Clock_advance ->
    Printf.sprintf "%s %d" label arg
  | Ledger.Spec_discard ->
    Printf.sprintf "%s %d" label (Ledger.discard_writes arg)
  | Ledger.Tx_begin | Ledger.Tx_commit | Ledger.Park | Ledger.Wake
  | Ledger.Lock_acquire | Ledger.Lock_release | Ledger.Hl_begin
  | Ledger.Switch_granted | Ledger.Switch_denied ->
    label

let pp_tail ~last ppf l =
  let skip = Int.max 0 (Ledger.length l - last) in
  let i = ref 0 in
  Ledger.iter l (fun ~time ~core ~kind ~arg ->
      if !i >= skip then
        Format.fprintf ppf "%10d  core %2d  %s@." time core
          (event_label kind arg);
      incr i)
