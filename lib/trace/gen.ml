(* lint: allow printf — error messages for profile validation are
   built with [Printf.sprintf] on the cold setup path; generation
   itself reports nothing.
   lint: allow hashtbl — a single [Hashtbl.hash] seeds the stream RNG
   at setup; no table is ever built. *)

open Lk_engine

type affinity = Any | Uniform | Sticky

type profile = {
  users : int;
  think_time : float;
  duration : int;
  day : int;
  diurnal_amp : float;
  burst_every : int;
  burst_len : int;
  burst_mult : float;
  reads_per_tx : int * int;
  writes_per_tx : int * int;
  cores : int;
  affinity : affinity;
  sticky_skew : float;
}

let default =
  {
    users = 10_000;
    think_time = 100_000.;
    duration = 1_000_000;
    day = 250_000;
    diurnal_amp = 0.3;
    burst_every = 200_000;
    burst_len = 20_000;
    burst_mult = 3.0;
    reads_per_tx = (4, 8);
    writes_per_tx = (2, 4);
    cores = 8;
    affinity = Any;
    sticky_skew = 0.8;
  }

let validate p =
  let range what (lo, hi) =
    if lo < 0 then Error (Printf.sprintf "%s lower bound must be non-negative (got %d)" what lo)
    else if hi < lo then
      Error (Printf.sprintf "%s range is empty (%d > %d)" what lo hi)
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let* () =
    if p.users <= 0 then Error (Printf.sprintf "users must be positive (got %d)" p.users)
    else Ok ()
  in
  let* () =
    if p.think_time <= 0. then
      Error (Printf.sprintf "think-time must be positive (got %g)" p.think_time)
    else Ok ()
  in
  let* () =
    if p.duration <= 0 then
      Error (Printf.sprintf "duration must be positive (got %d)" p.duration)
    else Ok ()
  in
  let* () =
    if p.day <= 0 then Error (Printf.sprintf "day must be positive (got %d)" p.day)
    else Ok ()
  in
  let* () =
    if p.diurnal_amp < 0. || p.diurnal_amp >= 1. then
      Error
        (Printf.sprintf "diurnal amplitude must be in [0, 1) (got %g)" p.diurnal_amp)
    else Ok ()
  in
  let* () =
    if p.burst_every < 0 then
      Error (Printf.sprintf "burst period must be non-negative (got %d)" p.burst_every)
    else if p.burst_every > 0 && (p.burst_len <= 0 || p.burst_len > p.burst_every)
    then
      Error
        (Printf.sprintf "burst length must be in [1, burst period] (got %d)" p.burst_len)
    else Ok ()
  in
  let* () =
    if p.burst_mult < 1. then
      Error (Printf.sprintf "burst multiplier must be >= 1 (got %g)" p.burst_mult)
    else Ok ()
  in
  let* () = range "reads-per-tx" p.reads_per_tx in
  let* () = range "writes-per-tx" p.writes_per_tx in
  let* () =
    if p.cores <= 0 then Error (Printf.sprintf "cores must be positive (got %d)" p.cores)
    else Ok ()
  in
  if p.sticky_skew < 0. then
    Error (Printf.sprintf "sticky skew must be non-negative (got %g)" p.sticky_skew)
  else Ok ()

let pi = 4.0 *. atan 1.0

(* Instantaneous arrival rate at cycle [t] (arrivals per cycle). *)
let rate p t =
  let base = float_of_int p.users /. p.think_time in
  let diurnal =
    1. +. (p.diurnal_amp *. sin (2. *. pi *. float_of_int (t mod p.day) /. float_of_int p.day))
  in
  let burst =
    if p.burst_every > 0 && t mod p.burst_every < p.burst_len then p.burst_mult
    else 1.
  in
  base *. diurnal *. burst

let uniform_in rng (lo, hi) = if hi <= lo then lo else lo + Rng.int rng (hi - lo + 1)

(* Phase tag: the quarter of the diurnal day the cycle falls in. *)
let t_phase p cycle = 4 * (cycle mod p.day) / p.day

let generate p ~seed ~emit =
  match validate p with
  | Error _ as e -> e
  | Ok () ->
      let rng = Rng.create (seed + (1299721 * Hashtbl.hash "gen-trace")) in
      let arrivals = Rng.split rng in
      let bodies = Rng.split rng in
      let users = Rng.split rng in
      let rate_max =
        float_of_int p.users /. p.think_time
        *. (1. +. p.diurnal_amp)
        *. (if p.burst_every > 0 then p.burst_mult else 1.)
      in
      let count = ref 0 in
      (* Thinning: candidate arrivals at the envelope rate [rate_max],
         each kept with probability rate(t) / rate_max. *)
      let t = ref 0.0 in
      let continue = ref true in
      while !continue do
        t := !t +. Rng.exponential arrivals (1. /. rate_max);
        let cycle = int_of_float !t in
        if cycle >= p.duration then continue := false
        else if Rng.chance arrivals (rate p cycle /. rate_max) then begin
          let core =
            match p.affinity with
            | Any -> -1
            | Uniform -> Rng.int users p.cores
            | Sticky ->
                let user = Rng.zipf users ~n:p.users ~s:p.sticky_skew in
                user mod p.cores
          in
          let phase = t_phase p cycle in
          (* Draw order is part of the trace: [writes] before [reads]. *)
          let writes = uniform_in bodies p.writes_per_tx in
          let reads = uniform_in bodies p.reads_per_tx in
          emit { Record.arrival = cycle; core; reads; writes; phase };
          incr count
        end
      done;
      Ok !count
