module Ledger = Lk_engine.Ledger
module Reason = Lk_htm.Reason

let reason_of_index =
  let arr = Array.of_list Reason.all in
  fun i -> if i >= 0 && i < Array.length arr then Some arr.(i) else None

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

let perfetto_json ?telemetry l =
  let entries = Ledger.entries l in
  let cores =
    List.fold_left (fun m e -> max m (e.Ledger.core + 1)) 0 entries
  in
  let last_time = List.fold_left (fun m e -> max m e.Ledger.time) 0 entries in
  (* Per-core open spans: start time of the pending transaction (with
     its attempt number), HTMLock section and lock hold. *)
  let tx_open = Array.make (max cores 1) None in
  let hl_open = Array.make (max cores 1) None in
  let lock_open = Array.make (max cores 1) None in
  let sw_open = Array.make (max cores 1) None in
  let events = ref [] in
  let push e = events := e :: !events in
  (* One fresh id per attributed abort edge, sequential in ledger
     order — deterministic across backends. *)
  let flow_seq = ref 0 in
  let push_kill_flow ~time ~aggressor ~victim =
    if aggressor >= 0 && aggressor <> victim then begin
      incr flow_seq;
      push (flow ~phase:"s" ~id:!flow_seq ~ts:time ~tid:aggressor);
      push (flow ~phase:"f" ~id:!flow_seq ~ts:time ~tid:victim)
    end
  in
  List.iter
    (fun { Ledger.time; core; kind; arg } ->
      match kind with
      | Ledger.Tx_begin -> tx_open.(core) <- Some (time, arg)
      | Ledger.Tx_commit -> (
        match tx_open.(core) with
        | Some (t0, attempt) ->
          tx_open.(core) <- None;
          push
            (slice ~name:"tx" ~ts:t0 ~dur:(time - t0) ~tid:core
               ~args:[ ("attempt", Json.Int attempt);
                       ("attempts", Json.Int arg) ])
        | None -> push (instant ~name:"commit" ~ts:time ~tid:core ~args:[]))
      | Ledger.Tx_abort ->
        let label =
          match reason_of_index (Ledger.abort_reason arg) with
          | Some r -> Reason.label r
          | None -> "?"
        in
        let who = Ledger.abort_who arg in
        let args =
          [
            ("reason", Json.String label);
            ("by", Json.Int who);
            ("age", Json.Int (Ledger.abort_age arg));
          ]
        in
        (match tx_open.(core) with
        | Some (t0, attempt) ->
          tx_open.(core) <- None;
          push
            (slice ~name:("abort:" ^ label) ~ts:t0 ~dur:(time - t0) ~tid:core
               ~args:(("attempt", Json.Int attempt) :: args))
        | None ->
          push (instant ~name:("abort:" ^ label) ~ts:time ~tid:core ~args));
        push_kill_flow ~time ~aggressor:who ~victim:core
      | Ledger.Hl_begin -> hl_open.(core) <- Some time
      | Ledger.Hl_end -> (
        let name = if arg = 1 then "STL" else "TL" in
        match hl_open.(core) with
        | Some t0 ->
          hl_open.(core) <- None;
          push (slice ~name ~ts:t0 ~dur:(time - t0) ~tid:core ~args:[])
        | None -> push (instant ~name:"hlend" ~ts:time ~tid:core ~args:[]))
      | Ledger.Lock_acquire -> lock_open.(core) <- Some time
      | Ledger.Lock_release -> (
        match lock_open.(core) with
        | Some t0 ->
          lock_open.(core) <- None;
          push (slice ~name:"lock" ~ts:t0 ~dur:(time - t0) ~tid:core ~args:[])
        | None ->
          push (instant ~name:"lock-release" ~ts:time ~tid:core ~args:[]))
      | Ledger.Nack ->
        push
          (instant ~name:"nack" ~ts:time ~tid:core
             ~args:
               [
                 ("by", Json.Int (Ledger.attr_who arg));
                 ("age", Json.Int (Ledger.attr_age arg));
               ])
      | Ledger.Reject ->
        push
          (instant ~name:"reject" ~ts:time ~tid:core
             ~args:
               [
                 ("by", Json.Int (Ledger.attr_who arg));
                 ("age", Json.Int (Ledger.attr_age arg));
               ])
      | Ledger.Abort_kill ->
        push
          (instant ~name:"kill" ~ts:time ~tid:core
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
      | Ledger.Sw_begin -> sw_open.(core) <- Some (time, arg)
      | Ledger.Sw_commit -> (
        match sw_open.(core) with
        | Some (t0, rv) ->
          sw_open.(core) <- None;
          push
            (slice ~name:"sw" ~ts:t0 ~dur:(time - t0) ~tid:core
               ~args:[ ("rv", Json.Int rv); ("wt", Json.Int arg) ])
        | None -> push (instant ~name:"sw-commit" ~ts:time ~tid:core ~args:[]))
      | Ledger.Sw_abort ->
        let label =
          match reason_of_index (Ledger.abort_reason arg) with
          | Some r -> Reason.label r
          | None -> "?"
        in
        let who = Ledger.abort_who arg in
        let args =
          [
            ("reason", Json.String label);
            ("by", Json.Int who);
            ("age", Json.Int (Ledger.abort_age arg));
          ]
        in
        (match sw_open.(core) with
        | Some (t0, rv) ->
          sw_open.(core) <- None;
          push
            (slice
               ~name:("sw-abort:" ^ label)
               ~ts:t0 ~dur:(time - t0) ~tid:core
               ~args:(("rv", Json.Int rv) :: args))
        | None ->
          push (instant ~name:("sw-abort:" ^ label) ~ts:time ~tid:core ~args));
        push_kill_flow ~time ~aggressor:who ~victim:core
      | Ledger.Clock_advance ->
        push
          (instant ~name:"clock" ~ts:time ~tid:core
             ~args:[ ("value", Json.Int arg) ]))
    entries;
  (* Anything still open when the ledger ends (e.g. a thread parked at
     simulation exit) is closed at the last recorded timestamp. *)
  Array.iteri
    (fun core -> function
      | Some (t0, attempt) ->
        push
          (slice ~name:"tx (open)" ~ts:t0 ~dur:(last_time - t0) ~tid:core
             ~args:[ ("attempt", Json.Int attempt) ])
      | None -> ())
    tx_open;
  Array.iteri
    (fun core -> function
      | Some t0 ->
        push
          (slice ~name:"hl (open)" ~ts:t0 ~dur:(last_time - t0) ~tid:core
             ~args:[])
      | None -> ())
    hl_open;
  Array.iteri
    (fun core -> function
      | Some t0 ->
        push
          (slice ~name:"lock (open)" ~ts:t0 ~dur:(last_time - t0) ~tid:core
             ~args:[])
      | None -> ())
    lock_open;
  Array.iteri
    (fun core -> function
      | Some (t0, rv) ->
        push
          (slice ~name:"sw (open)" ~ts:t0 ~dur:(last_time - t0) ~tid:core
             ~args:[ ("rv", Json.Int rv) ])
      | None -> ())
    sw_open;
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

let reason_label arg =
  match reason_of_index (Ledger.abort_reason arg) with
  | Some r -> Reason.label r
  | None -> "?"

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
