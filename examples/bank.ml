(* A hand-written transactional application on the low-level API: a
   bank whose tellers transfer money between accounts inside
   transactions. Demonstrates building a custom machine, runtime and
   thread programs without the STAMP generators — and verifies that
   every system of Table II preserves the bank's total balance.

     dune exec examples/bank.exe *)

module Sim = Lockiller.Engine.Sim
module Store = Lockiller.Htm.Store
module Sysconf = Lockiller.Mechanisms.Sysconf
module Runtime = Lockiller.Mechanisms.Runtime
module Program = Lockiller.Cpu.Program
module Accounting = Lockiller.Cpu.Accounting
module Core = Lockiller.Cpu.Core
module Config = Lockiller.Sim.Config

let accounts = 16
let tellers = 8
let transfers_per_teller = 40
let initial_balance = 1_000
let account_addr i = 64 * (8 + i) (* one cache line per account *)
let lock_addr = 0

(* Each teller moves a pseudo-random amount between two accounts per
   transaction: read both balances, debit one, credit the other. *)
let teller_program teller =
  List.init transfers_per_teller (fun i ->
      let from_ = (teller + (3 * i)) mod accounts in
      let to_ = (from_ + 1 + (i mod (accounts - 1))) mod accounts in
      let amount = 1 + ((teller + i) mod 9) in
      {
        Program.pre_compute = 10;
        ops =
          [
            Program.Read (account_addr from_);
            Program.Read (account_addr to_);
            Program.Compute 6;
            Program.Add (account_addr from_, -amount);
            Program.Add (account_addr to_, amount);
          ];
        post_compute = 10;
      })

let run_bank sysconf =
  let machine = Config.machine ~cores:8 () in
  let sim, _net, protocol = Config.build machine in
  let store = Store.create ~cores:8 in
  (* open the bank *)
  for i = 0 to accounts - 1 do
    Store.poke store (account_addr i) initial_balance
  done;
  let runtime = Runtime.create ~protocol ~store ~sysconf ~lock_addr () in
  let accounting = Accounting.create ~cores:8 in
  let cpus =
    Array.init tellers (fun core ->
        Core.spawn ~runtime ~core ~accounting ~on_done:(fun () -> ()) ())
  in
  Array.iteri
    (fun core cpu -> Core.drive cpu (Program.stream (Program.cursor (teller_program core))))
    cpus;
  Sim.run sim;
  let total =
    List.init accounts (fun i -> Store.committed store (account_addr i))
    |> List.fold_left ( + ) 0
  in
  (Sim.now sim, total)

let () =
  Printf.printf
    "Bank: %d accounts x %d, %d tellers x %d transfers, every Table II \
     system\n\n"
    accounts initial_balance tellers transfers_per_teller;
  let expected = accounts * initial_balance in
  List.iter
    (fun sysconf ->
      let cycles, total = run_bank sysconf in
      Printf.printf "%-16s %8d cycles   total balance %6d  %s\n"
        sysconf.Sysconf.name cycles total
        (if total = expected then "(conserved)" else "(VIOLATION!)");
      if total <> expected then exit 1)
    Sysconf.all;
  print_newline ();
  Printf.printf "Money is conserved under every system: transactions are \
                 atomic end to end.\n"
