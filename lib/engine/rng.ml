(* SplitMix64 (Steele, Lea, Flood 2014). The zipf sampler uses the
   rejection-inversion method of Hörmann and Derflinger, which needs no
   precomputed table and is exact for any skew s >= 0. *)

(* The 64-bit state lives unboxed in 8 bytes: a [mutable int64] field
   would box every new state, and with [mix64] and [bits64] inlined a
   draw then allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 state;
  mix64 state

let split t =
  let seed = bits64 t in
  let gamma = Int64.logor (mix64 (Int64.add seed golden_gamma)) 1L in
  (* Fold the derived gamma into the seed so sibling splits differ even
     when the raw outputs collide in their low bits. *)
  of_state (Int64.logxor seed (Int64.shift_left gamma 1))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (bits64 t) mask) in
  v mod bound

let float t bound =
  (* 53 random bits scaled into [0, 1). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0;1]";
  if p = 1.0 then 0
  else
    let u = float t 1.0 in
    let u = if u <= 0.0 then min_float else u in
    int_of_float (floor (log u /. log (1.0 -. p)))

let exponential t mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then min_float else u in
  -.mean *. log u

(* Rejection-inversion sampling for the Zipf distribution over ranks
   1..n, returned 0-based. See Hörmann & Derflinger, "Rejection-inversion
   to generate variates from monotone discrete distributions" (1996). *)
let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  if s < 0.0 then invalid_arg "Rng.zipf: s must be non-negative";
  if n = 1 then 0
  else if s = 0.0 then int t n
  else begin
    let h_integral x = if s = 1.0 then log x else (x ** (1.0 -. s)) /. (1.0 -. s) in
    let h x = x ** -.s in
    let h_integral_inverse u =
      if s = 1.0 then exp u else ((1.0 -. s) *. u) ** (1.0 /. (1.0 -. s))
    in
    let nf = float_of_int n in
    let h_integral_x1 = h_integral 1.5 -. 1.0 in
    let h_integral_n = h_integral (nf +. 0.5) in
    let s_const = 2.0 -. h_integral_inverse (h_integral 2.5 -. h 2.0) in
    let rec draw () =
      let u = h_integral_n +. (float t 1.0 *. (h_integral_x1 -. h_integral_n)) in
      let x = h_integral_inverse u in
      let k = Float.round x in
      let k = if k < 1.0 then 1.0 else if k > nf then nf else k in
      if k -. x <= s_const || u >= h_integral (k +. 0.5) -. h k then
        int_of_float k - 1
      else draw ()
    in
    draw ()
  end
