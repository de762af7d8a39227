(* Friendly fire, up close. Two threads repeatedly increment the same
   two counters in opposite orders — the classic mutual-kill pattern:
   under requester-win each transaction aborts the other, nobody
   advances, and both eventually limp through the fallback lock. The
   recovery mechanism with insts-based priority lets exactly one of
   them win each round instead.

     dune exec examples/friendly_fire.exe *)

module Sim = Lockiller.Engine.Sim
module Store = Lockiller.Htm.Store
module Reason = Lockiller.Htm.Reason
module Sysconf = Lockiller.Mechanisms.Sysconf
module Runtime = Lockiller.Mechanisms.Runtime
module Program = Lockiller.Cpu.Program
module Accounting = Lockiller.Cpu.Accounting
module Core = Lockiller.Cpu.Core
module Config = Lockiller.Sim.Config

let a = 64 * 16
let b = 64 * 17
let rounds = 15

(* Thread 0 touches A then B; thread 1 touches B then A, with enough
   compute in between that both are mid-flight when the conflict
   lands. *)
let program =
  [|
    List.init rounds (fun _ ->
        {
          Program.pre_compute = 4;
          ops =
            [
              Program.Incr a;
              Program.Compute 300;
              Program.Incr b;
              Program.Compute 300;
            ];
          post_compute = 4;
        });
    List.init rounds (fun _ ->
        {
          Program.pre_compute = 4;
          ops =
            [
              Program.Incr b;
              Program.Compute 300;
              Program.Incr a;
              Program.Compute 300;
            ];
          post_compute = 4;
        });
  |]

let run sysconf =
  let machine = Config.machine ~cores:2 () in
  let sim, _net, protocol = Config.build machine in
  let store = Store.create ~cores:2 in
  let runtime = Runtime.create ~protocol ~store ~sysconf ~lock_addr:0 () in
  let accounting = Accounting.create ~cores:2 in
  let cpus =
    Array.init (Array.length program) (fun core ->
        Core.spawn ~runtime ~core ~accounting ~on_done:(fun () -> ()) ())
  in
  Array.iteri
    (fun core cpu -> Core.drive cpu (Program.cursor program.(core)))
    cpus;
  Sim.run sim;
  let stats c = Runtime.core_stats runtime c in
  let aborts = (stats 0).Runtime.aborts + (stats 1).Runtime.aborts in
  let mc =
    (stats 0).Runtime.abort_reasons.(Reason.index Reason.Conflict_htm)
    + (stats 1).Runtime.abort_reasons.(Reason.index Reason.Conflict_htm)
  in
  let fallbacks =
    (stats 0).Runtime.lock_commits + (stats 1).Runtime.lock_commits
  in
  let rejects =
    (stats 0).Runtime.rejects_received + (stats 1).Runtime.rejects_received
  in
  Printf.printf "%-18s %8d cycles  %4d aborts (%d mc)  %3d fallbacks  %4d rejects\n"
    sysconf.Sysconf.name (Sim.now sim) aborts mc fallbacks rejects;
  assert (Store.committed store a = 2 * rounds);
  assert (Store.committed store b = 2 * rounds)

let () =
  Printf.printf
    "Friendly fire: 2 threads increment the same counters in opposite \
     order, %d rounds each.\n\n" rounds;
  List.iter run
    [ Sysconf.baseline; Sysconf.lockiller_rai; Sysconf.lockiller_rwi ];
  print_newline ();
  Printf.printf
    "Requester-win: both transactions keep killing each other (mc aborts) \
     and\nfall back to the lock. Recovery + insts-based priority rejects the\n\
     younger transaction's requests instead, so one always finishes \
     (fewer\naborts, fewer fallbacks — the rejects column shows the NACKs \
     doing the work).\n"
