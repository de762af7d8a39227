module Rng = Lk_engine.Rng
module Addr = Lk_coherence.Addr
module Program = Lk_cpu.Program
module Body = Lk_cpu.Body

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

let hot p rng = Rng.chance rng p.hot_fraction && p.hot_lines > 0

(* One transaction body, drawn into [b]: a shuffled interleaving of
   reads and writes, with local compute between operations and an
   optional fault. Hot writes are conservation-checkable increments;
   private writes carry an arbitrary token. *)
let sized_tx p rng ~threads ~thread ~n_reads ~n_writes b =
  let n = n_reads + n_writes in
  let per_op = if p.compute_per_op > 0 then 2 else 1 in
  let len = per_op * n in
  Body.reserve b (len + 1);
  for i = 0 to n - 1 do
    if i < n_reads then begin
      let line = if hot p rng then pick_hot p rng else pick_shared p rng in
      Body.set b i Read (addr_of_line line) 0
    end
    else if hot p rng then
      Body.set b i Incr (addr_of_line (pick_hot p rng)) 1
    else begin
      let token = Rng.int rng 1024 in
      let line = pick_private p rng ~threads ~thread in
      Body.set b i Write (addr_of_line line) token
    end
  done;
  (* [Rng.shuffle]'s swaps, on the slots. *)
  for i = n - 1 downto 1 do
    Body.swap b i (Rng.int rng (i + 1))
  done;
  (* The fault, if any, goes before element [fault_at] of the body with
     its [Compute]s interleaved. *)
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
  (* Draw order is part of the output: [post_compute] before
     [pre_compute]. *)
  let post_compute = uniform_in rng p.post_compute in
  let pre_compute = uniform_in rng p.pre_compute in
  (* Spread the ops in place, back to front. With interleave, even
     positions hold the compute before op [pos / 2] and odd ones the
     op; past the fault, each element moves one slot up. *)
  for pos = len - 1 downto 0 do
    let dst = if fault_at >= 0 && pos >= fault_at then pos + 1 else pos in
    if per_op = 2 && pos land 1 = 0 then
      Body.set b dst Compute p.compute_per_op 0
    else Body.move b ~src:(pos / per_op) ~dst
  done;
  if fault_at >= 0 then Body.set b fault_at Fault 0 0;
  Body.finish b ~length:(if fault_at >= 0 then len + 1 else len)
    ~pre_compute ~post_compute

(* Closed-loop body: footprint sizes drawn from the profile's ranges. *)
let gen_tx p rng ~threads ~thread b =
  let n_reads = uniform_in rng p.reads_per_tx in
  let n_writes = uniform_in rng p.writes_per_tx in
  sized_tx p rng ~threads ~thread ~n_reads ~n_writes b

(* Open-loop body: footprint sizes dictated by a trace record. *)
let synthesize p rng ~threads ~thread ~reads ~writes b =
  if reads < 0 || writes < 0 then
    invalid_arg "Workload.synthesize: negative footprint";
  sized_tx p rng ~threads ~thread ~n_reads:reads ~n_writes:writes b

(* One RNG per thread, split from a root seeded by (seed, profile name)
   in thread order. A thread's transactions draw only from its own
   stream, so drawing them lazily, interleaved across threads, yields
   the same bodies as drawing each thread's in one go. *)
let thread_rngs p ~threads ~seed =
  let root = Rng.create (seed + (1299721 * Hashtbl.hash p.name)) in
  Array.init threads (fun _ -> Rng.split root)

let streams p ~threads ~seed ~scale =
  (match validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Workload.streams: " ^ msg));
  if threads <= 0 then invalid_arg "Workload.streams: threads must be positive";
  if not (Float.is_finite scale && scale > 0.0) then
    invalid_arg
      (Printf.sprintf "Workload.streams: scale must be finite and positive (got %g)"
         scale);
  let count = max 1 (int_of_float (float_of_int p.txs_per_thread *. scale)) in
  Array.mapi
    (fun thread rng -> { Program.count; draw = gen_tx p rng ~threads ~thread })
    (thread_rngs p ~threads ~seed)

let generate p ~threads ~seed ~scale =
  let b = Body.create () in
  Array.map
    (fun (s : Program.stream) ->
      List.init s.count (fun _ ->
          s.draw b;
          Program.unpack b))
    (streams p ~threads ~seed ~scale)

let hot_addresses p =
  List.init p.hot_lines (fun i -> addr_of_line (hot_line i))

(* Per hot record, the [Incr]s drawn: a body increments no other
   address. *)
type tally = int array

let tally p = Array.make p.hot_lines 0

let count t b =
  for i = 0 to Body.length b - 1 do
    match Body.kind b i with
    | Incr ->
      let k = Addr.line_of_byte (Body.operand b i) - hot_base in
      t.(k) <- t.(k) + 1
    | Compute | Read | Write | Add | Fault -> ()
  done

let expected t = List.init (Array.length t) (fun i -> (addr_of_line (hot_line i), t.(i)))

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
