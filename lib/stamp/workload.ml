module Rng = Lk_engine.Rng
module Addr = Lk_coherence.Addr
module Program = Lk_cpu.Program

type profile = {
  name : string;
  txs_per_thread : int;
  reads_per_tx : int * int;
  writes_per_tx : int * int;
  hot_lines : int;
  hot_fraction : float;
  zipf_skew : float;
  shared_lines : int;
  private_lines : int;
  compute_per_op : int;
  pre_compute : int * int;
  post_compute : int * int;
  fault_prob : float;
  barrier_every : int option;
}

let lock_addr = 0

(* Region layout in lines: lock on line 0, a guard gap, then hot,
   shared, and per-thread private regions. *)
let hot_base = 16

let hot_line i = hot_base + i
let shared_base p = hot_base + p.hot_lines
let private_base p ~threads:_ ~thread =
  shared_base p + p.shared_lines + (thread * (p.private_lines + 1))

let addr_of_line l = Addr.byte_of_line l

let validate p =
  let err msg = Error (p.name ^ ": " ^ msg) in
  let lo_r, hi_r = p.reads_per_tx and lo_w, hi_w = p.writes_per_tx in
  if p.txs_per_thread <= 0 then err "txs_per_thread must be positive"
  else if lo_r < 0 || hi_r < lo_r then err "bad reads_per_tx range"
  else if lo_w < 0 || hi_w < lo_w then err "bad writes_per_tx range"
  else if p.hot_lines < 0 || p.shared_lines <= 0 || p.private_lines < 0 then
    err "bad region sizes"
  else if p.hot_fraction < 0.0 || p.hot_fraction > 1.0 then
    err "hot_fraction out of range"
  else if p.fault_prob < 0.0 || p.fault_prob > 1.0 then
    err "fault_prob out of range"
  else if p.hot_lines = 0 && p.hot_fraction > 0.0 then
    err "hot_fraction without hot lines"
  else
    match p.barrier_every with
    | Some k when k <= 0 -> err "barrier_every must be positive"
    | Some _ | None -> Ok ()

let uniform_in rng (lo, hi) = if hi <= lo then lo else lo + Rng.int rng (hi - lo + 1)

let pick_hot p rng =
  hot_line (Rng.zipf rng ~n:p.hot_lines ~s:p.zipf_skew)

let pick_shared p rng = shared_base p + Rng.int rng p.shared_lines

let pick_private p rng ~threads ~thread =
  if p.private_lines = 0 then pick_shared p rng
  else private_base p ~threads ~thread + Rng.int rng p.private_lines

(* One transaction body: a shuffled interleaving of reads and writes,
   with local compute between operations and an optional fault. Hot
   writes are conservation-checkable increments; private writes carry
   an arbitrary token. *)
let sized_tx p rng ~threads ~thread ~n_reads ~n_writes =
  let mk_read () =
    let line =
      if Rng.chance rng p.hot_fraction && p.hot_lines > 0 then pick_hot p rng
      else pick_shared p rng
    in
    Program.Read (addr_of_line line)
  in
  let mk_write () =
    if Rng.chance rng p.hot_fraction && p.hot_lines > 0 then
      Program.Incr (addr_of_line (pick_hot p rng))
    else
      Program.Write
        (addr_of_line (pick_private p rng ~threads ~thread), Rng.int rng 1024)
  in
  let ops = Array.init (n_reads + n_writes) (fun i ->
      if i < n_reads then mk_read () else mk_write ())
  in
  Rng.shuffle rng ops;
  let ops = Array.to_list ops in
  let ops =
    if p.compute_per_op > 0 then
      List.concat_map (fun op -> [ Program.Compute p.compute_per_op; op ]) ops
    else ops
  in
  let ops =
    if Rng.chance rng p.fault_prob then begin
      (* Inject the fault late in the body (the last quarter): faults in
         yada-like workloads strike deep inside cavity processing, which
         is what makes the wasted work expensive. *)
      let len = List.length ops in
      let lo = 3 * len / 4 in
      let pos = lo + Rng.int rng (len - lo + 1) in
      List.concat
        [
          List.filteri (fun i _ -> i < pos) ops;
          [ Program.Fault ];
          List.filteri (fun i _ -> i >= pos) ops;
        ]
    end
    else ops
  in
  {
    Program.pre_compute = uniform_in rng p.pre_compute;
    ops;
    post_compute = uniform_in rng p.post_compute;
  }

(* Closed-loop body: footprint sizes drawn from the profile's ranges. *)
let gen_tx p rng ~threads ~thread =
  let n_reads = uniform_in rng p.reads_per_tx in
  let n_writes = uniform_in rng p.writes_per_tx in
  sized_tx p rng ~threads ~thread ~n_reads ~n_writes

(* Open-loop body: footprint sizes dictated by a trace record. *)
let synthesize p rng ~threads ~thread ~reads ~writes =
  if reads < 0 || writes < 0 then
    invalid_arg "Workload.synthesize: negative footprint";
  sized_tx p rng ~threads ~thread ~n_reads:reads ~n_writes:writes

let generate p ~threads ~seed ~scale =
  (match validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Workload.generate: " ^ msg));
  if threads <= 0 then invalid_arg "Workload.generate: threads must be positive";
  if scale <= 0.0 then invalid_arg "Workload.generate: scale must be positive";
  let txs = max 1 (int_of_float (float_of_int p.txs_per_thread *. scale)) in
  let root = Rng.create (seed + (1299721 * Hashtbl.hash p.name)) in
  Array.init threads (fun thread ->
      let rng = Rng.split root in
      List.init txs (fun _ -> gen_tx p rng ~threads ~thread))

let hot_addresses p =
  List.init p.hot_lines (fun i -> addr_of_line (hot_line i))

let hot_increments p program =
  let counts = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace counts a 0) (hot_addresses p);
  Array.iter
    (fun thread ->
      List.iter
        (fun tx ->
          List.iter
            (function
              | Program.Incr a ->
                Hashtbl.replace counts a
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts a))
              | Program.Add (a, _) | Program.Read a | Program.Write (a, _) ->
                ignore a
              | Program.Compute _ | Program.Fault -> ())
            tx.Program.ops)
        thread)
    program;
  Hashtbl.fold (fun a n acc -> (a, n) :: acc) counts []
  |> List.sort compare

let pp ppf p =
  Format.fprintf ppf
    "%s: %d txs/thread, reads %d-%d, writes %d-%d, hot %d lines (%.0f%%, \
     zipf %.2f), shared %d, private %d, fault %.2f"
    p.name p.txs_per_thread (fst p.reads_per_tx) (snd p.reads_per_tx)
    (fst p.writes_per_tx) (snd p.writes_per_tx) p.hot_lines
    (100.0 *. p.hot_fraction) p.zipf_skew p.shared_lines p.private_lines
    p.fault_prob;
  match p.barrier_every with
  | Some k -> Format.fprintf ppf ", barrier every %d" k
  | None -> ()
