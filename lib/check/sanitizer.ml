module Ledger = Lk_engine.Ledger
module Runtime = Lk_lockiller.Runtime

type t = {
  runtime : Runtime.t;
  mutable violations : Invariant.violation list;  (* newest first *)
  mutable seen : int;
  keep : int;
}

let attach ?(keep = 8) rt =
  let ledger =
    match Runtime.ledger rt with
    | Some l -> l
    | None -> Runtime.enable_ledger rt
  in
  let t = { runtime = rt; violations = []; seen = 0; keep } in
  Ledger.set_sink ledger
    (Some
       (fun ~time:_ ~core ~kind ~arg ->
         match Invariant.check_event rt ~kind ~core ~arg with
         | None -> ()
         | Some v ->
           t.seen <- t.seen + 1;
           if t.seen <= t.keep then t.violations <- v :: t.violations));
  t

let finish t =
  let end_violations = Invariant.check_end t.runtime in
  List.rev t.violations @ end_violations
