module Sim = Lk_engine.Sim

type t = {
  n : int;
  mutable parked : (unit -> unit) list;
  mutable completed : int;
}

let create ~parties =
  if parties <= 0 then invalid_arg "Barrier.create: parties must be positive";
  { n = parties; parked = []; completed = 0 }

let waiting t = List.length t.parked

let phases_completed t = t.completed

let wait t ~sim ~k =
  if List.length t.parked >= t.n then
    invalid_arg "Barrier.wait: more waiters than parties";
  if List.length t.parked = t.n - 1 then begin
    (* last arrival: release everyone *)
    let release = List.rev (k :: t.parked) in
    t.parked <- [];
    t.completed <- t.completed + 1;
    List.iter (fun k -> Sim.schedule sim ~delay:0 k) release
  end
  else t.parked <- k :: t.parked
