let all =
  [
    Genome.profile;
    Intruder.profile;
    Kmeans.low;
    Kmeans.high;
    Labyrinth.profile;
    Ssca2.profile;
    Vacation.low;
    Vacation.high;
    Yada.profile;
  ]

let high_contention = [ Intruder.profile; Kmeans.high; Vacation.high ]

let extras = Bayes.profile :: Micro.all

let find name =
  let needle = String.lowercase_ascii name in
  List.find_opt
    (fun p -> String.lowercase_ascii p.Workload.name = needle)
    (all @ extras)

let names = List.map (fun p -> p.Workload.name) all

let extra_names = List.map (fun p -> p.Workload.name) extras

let lookup name =
  Option.to_result (find name)
    ~none:
      (Printf.sprintf "unknown workload %S (expected one of: %s)" name
         (String.concat ", " (names @ extra_names)))

(* --- Workload specs ----------------------------------------------------- *)

type size = Low | High

type spec = {
  app : string;
  size : size;
  rw_scale : float;
  txs_scale : float;
  tag : bool;
}

let spec ?(size = Low) ?(rw_scale = 1.0) ?(txs_scale = 1.0) ?tag app =
  let tag =
    match tag with Some t -> t | None -> rw_scale <> 1.0 || txs_scale <> 1.0
  in
  { app; size; rw_scale; txs_scale; tag }

let spec_of_name name =
  if name = "" then Error "empty workload name"
  else
    let base, size =
      let n = String.length name in
      if name.[n - 1] = '+' then (String.sub name 0 (n - 1), High)
      else (name, Low)
    in
    if base = "" then Error (Printf.sprintf "bad workload name %S" name)
    else Ok (spec ~size base)

let spec_name s =
  let base = s.app ^ match s.size with Low -> "" | High -> "+" in
  if s.tag then Printf.sprintf "%s-x%.2g" base s.rw_scale else base

(* Floor-scaling that matches the historical integer arithmetic
   ([lo * m / 4] for power-of-two multiplier ratios): multiply in
   floats, truncate, clamp to 1. *)
let scale_floor ~floor v f =
  if f = 1.0 then v else max floor (int_of_float (float_of_int v *. f))

let realise s =
  let name = s.app ^ match s.size with Low -> "" | High -> "+" in
  match lookup name with
  | Error _ as e -> e
  | Ok base ->
    let bad f = not (Float.is_finite f && f > 0.0) in
    if bad s.rw_scale then
      Error
        (Printf.sprintf "rw_scale must be finite and positive (got %g)"
           s.rw_scale)
    else if bad s.txs_scale then
      Error
        (Printf.sprintf "txs_scale must be finite and positive (got %g)"
           s.txs_scale)
    else
      let scale_range (lo, hi) =
        ( scale_floor ~floor:1 lo s.rw_scale,
          scale_floor ~floor:1 hi s.rw_scale )
      in
      Ok
        {
          base with
          Workload.name = spec_name s;
          reads_per_tx = scale_range base.Workload.reads_per_tx;
          writes_per_tx = scale_range base.Workload.writes_per_tx;
          txs_per_thread =
            scale_floor ~floor:4 base.Workload.txs_per_thread s.txs_scale;
        }
