(* The clock is one word of ordinary committed memory at a fixed,
   reserved line, so every read or advance of it is a plain coherence
   access to that line's home bank — the contention it causes is the
   point of modelling it this way. *)

module Addr = Lk_coherence.Addr

let line = 2
let addr = line * Addr.line_size

(* Second word of the same line: the commit-in-progress flag of the
   Read_check scheme (a sequence-lock, as in Hybrid NOrec). Sharing the
   clock's line means one subscription covers both words. *)
let flag_addr = addr + 8

let read store = Store.committed store addr

let set_commit_flag store flag =
  Store.poke store flag_addr (if flag then 1 else 0)

let write_stamp store = read store + 1

let advance store ~to_ =
  let v = Store.committed store addr in
  if to_ > v then begin
    Store.poke store addr to_;
    true
  end
  else false
