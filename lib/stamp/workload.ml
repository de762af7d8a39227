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
  (* The fault, if any, goes before element [fault_at] of the body with
     its [Compute]s interleaved. *)
  let per_op = if p.compute_per_op > 0 then 2 else 1 in
  let len = per_op * Array.length ops in
  let fault_at =
    if Rng.chance rng p.fault_prob then begin
      (* Inject the fault late in the body (the last quarter): faults in
         yada-like workloads strike deep inside cavity processing, which
         is what makes the wasted work expensive. *)
      let lo = 3 * len / 4 in
      lo + Rng.int rng (len - lo + 1)
    end
    else -1
  in
  (* One pass, back to front. With interleave, even positions hold the
     compute before op [pos / 2] and odd ones the op. *)
  let compute = Program.Compute p.compute_per_op in
  let body = ref (if fault_at = len then [ Program.Fault ] else []) in
  for pos = len - 1 downto 0 do
    let elt =
      if per_op = 1 then ops.(pos)
      else if pos land 1 = 0 then compute
      else ops.(pos / 2)
    in
    body := elt :: !body;
    if pos = fault_at then body := Program.Fault :: !body
  done;
  (* Draw order is part of the output: [post_compute] before
     [pre_compute]. *)
  let post_compute = uniform_in rng p.post_compute in
  let pre_compute = uniform_in rng p.pre_compute in
  { Program.pre_compute; ops = !body; post_compute }

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

(* One RNG per thread, split from a root seeded by (seed, profile name)
   in thread order. A thread's transactions draw only from its own
   stream, so drawing them lazily, interleaved across threads, yields
   the same bodies as drawing each thread's in one go. *)
let thread_rngs p ~threads ~seed =
  let root = Rng.create (seed + (1299721 * Hashtbl.hash p.name)) in
  Array.init threads (fun _ -> Rng.split root)

let cursors p ~threads ~seed ~scale =
  (match validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Workload.cursors: " ^ msg));
  if threads <= 0 then invalid_arg "Workload.cursors: threads must be positive";
  if not (Float.is_finite scale && scale > 0.0) then
    invalid_arg
      (Printf.sprintf "Workload.cursors: scale must be finite and positive (got %g)"
         scale);
  let length = max 1 (int_of_float (float_of_int p.txs_per_thread *. scale)) in
  Array.mapi
    (fun thread rng ->
      { Program.length; next = (fun () -> gen_tx p rng ~threads ~thread) })
    (thread_rngs p ~threads ~seed)

let generate p ~threads ~seed ~scale =
  Array.map
    (fun (c : Program.cursor) ->
      List.init c.Program.length (fun _ -> c.Program.next ()))
    (cursors p ~threads ~seed ~scale)

let hot_addresses p =
  List.init p.hot_lines (fun i -> addr_of_line (hot_line i))

type tally = (int, int) Hashtbl.t

let tally p =
  let t = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace t a 0) (hot_addresses p);
  t

let count t (tx : Program.transaction) =
  List.iter
    (function
      | Program.Incr a ->
        Hashtbl.replace t a (1 + Option.value ~default:0 (Hashtbl.find_opt t a))
      | Program.Add _ | Program.Read _ | Program.Write _ | Program.Compute _
      | Program.Fault ->
        ())
    tx.Program.ops;
  tx

let expected t =
  Hashtbl.fold (fun a n acc -> (a, n) :: acc) t [] |> List.sort compare

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
