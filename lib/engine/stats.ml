(* lint: allow hashtbl — the registries below key counters by name at
   setup time only; the hot path mutates the counter records directly. *)

type counter = { c_name : string; mutable c_value : int }

(* Log-linear "HDR-style" histogram: values below [sub] (= 32) get an
   exact unit bucket; above that, each power-of-two octave is split
   into 32 linear sub-buckets, giving <= ~3% relative error at any
   magnitude. 1856 buckets cover every non-negative OCaml int. *)

type hdr = {
  d_name : string;
  d_counts : int array;
  mutable d_count : int;
  mutable d_sum : int;
  mutable d_min : int;
  mutable d_max : int;
}

type group = {
  g_name : string;
  g_counters : (string, counter) Hashtbl.t;
  g_hdrs : (string, hdr) Hashtbl.t;
}

let group g_name =
  {
    g_name;
    g_counters = Hashtbl.create 16;
    g_hdrs = Hashtbl.create 16;
  }

let counter g name =
  match Hashtbl.find_opt g.g_counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.add g.g_counters name c;
    c

(* (56 octaves + the unit range) * 32 sub-buckets. *)
let hdr_buckets = 1856

let hdr g name =
  match Hashtbl.find_opt g.g_hdrs name with
  | Some d -> d
  | None ->
    let d =
      {
        d_name = name;
        d_counts = Array.make hdr_buckets 0;
        d_count = 0;
        d_sum = 0;
        d_min = max_int;
        d_max = min_int;
      }
    in
    Hashtbl.add g.g_hdrs name d;
    d

(* Index of the highest set bit of [v > 0]. *)
let floor_log2 v =
  let e = ref 0 in
  let v = ref v in
  if !v lsr 32 <> 0 then (e := !e + 32; v := !v lsr 32);
  if !v lsr 16 <> 0 then (e := !e + 16; v := !v lsr 16);
  if !v lsr 8 <> 0 then (e := !e + 8; v := !v lsr 8);
  if !v lsr 4 <> 0 then (e := !e + 4; v := !v lsr 4);
  if !v lsr 2 <> 0 then (e := !e + 2; v := !v lsr 2);
  if !v lsr 1 <> 0 then e := !e + 1;
  !e

let hdr_index v =
  if v < 32 then v
  else
    let e = floor_log2 v in
    ((e - 5) * 32) + (v lsr (e - 5))

(* Largest value mapping to bucket [i] (inclusive). *)
let hdr_bound i =
  if i < 32 then i
  else
    let e = (i / 32) + 4 in
    let m = (i mod 32) + 32 in
    ((m + 1) lsl (e - 5)) - 1

let record d v =
  let v = if v < 0 then 0 else v in
  let i = hdr_index v in
  let i = if i >= hdr_buckets then hdr_buckets - 1 else i in
  d.d_counts.(i) <- d.d_counts.(i) + 1;
  d.d_count <- d.d_count + 1;
  d.d_sum <- d.d_sum + v;
  if v < d.d_min then d.d_min <- v;
  if v > d.d_max then d.d_max <- v

let hdr_count d = d.d_count
let hdr_sum d = d.d_sum
let hdr_min d = if d.d_count = 0 then None else Some d.d_min
let hdr_max d = if d.d_count = 0 then None else Some d.d_max

let hdr_mean d =
  if d.d_count = 0 then 0.0 else float_of_int d.d_sum /. float_of_int d.d_count

(* The sample at rank ceil(p/100 * count), reported as its bucket's
   upper bound clamped to the exact observed min/max; 0 when empty. *)
let percentile d p =
  if d.d_count = 0 then 0
  else begin
    let p = if p < 0. then 0. else if p > 100. then 100. else p in
    let rank =
      let r = int_of_float (ceil (p /. 100. *. float_of_int d.d_count)) in
      if r < 1 then 1 else r
    in
    let acc = ref 0 in
    let i = ref 0 in
    while !acc < rank && !i < hdr_buckets do
      acc := !acc + d.d_counts.(!i);
      incr i
    done;
    let v = hdr_bound (!i - 1) in
    if v < d.d_min then d.d_min else if v > d.d_max then d.d_max else v
  end

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters g =
  sorted_bindings g.g_counters |> List.map (fun (k, c) -> (k, c.c_value))

let hdrs g = sorted_bindings g.g_hdrs

let reset g =
  Hashtbl.iter
    (fun _ d ->
      Array.fill d.d_counts 0 (Array.length d.d_counts) 0;
      d.d_count <- 0;
      d.d_sum <- 0;
      d.d_min <- max_int;
      d.d_max <- min_int)
    g.g_hdrs;
  Hashtbl.iter (fun _ c -> c.c_value <- 0) g.g_counters

let pp ppf g =
  Format.fprintf ppf "@[<v>[%s]" g.g_name;
  List.iter
    (fun (name, v) -> Format.fprintf ppf "@,%s = %d" name v)
    (counters g);
  List.iter
    (fun (name, d) ->
      Format.fprintf ppf "@,%s: n=%d mean=%.2f p50=%d p95=%d p99=%d" name
        d.d_count (hdr_mean d) (percentile d 50.) (percentile d 95.)
        (percentile d 99.))
    (sorted_bindings g.g_hdrs);
  Format.fprintf ppf "@]"
