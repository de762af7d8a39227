module Program = Lk_cpu.Program
module Runtime = Lk_lockiller.Runtime
module Sysconf = Lk_lockiller.Sysconf

type t = {
  name : string;
  descr : string;
  sysconf : Sysconf.t;
  program : Program.t;
  costs : Runtime.costs;
  expected : (int * int) list;
  shards : int option;
}

(* Byte addresses used by scenario bodies. The fallback/CGL lock lives
   at byte 0, the global version clock on line 2 and the software-mode
   gate on line 3, so data must stay off the first four lines
   (bytes 0..255). *)
let a0 = 256

let a1 = 320

let costs = Runtime.default_costs

(* Widened commit window: xend's bookkeeping takes this many cycles, so
   a concurrent kill has a real chance to land between the commit
   request and its completion. That window is exactly what the
   dirty-commit epoch guard protects. *)
let slow_commit = { costs with Runtime.commit_cost = 40 }

let tx ?(pre = 2) ?(post = 1) ops = { Program.pre_compute = pre; ops; post_compute = post }

let incr_thread ?pre ?post ~txs addr =
  List.init txs (fun _ -> tx ?pre ?post [ Program.Incr addr ])

let read_forward =
  {
    name = "read-forward";
    descr = "an exclusive owner is read by a second core (owner must \
             downgrade to S)";
    sysconf = Sysconf.baseline;
    program =
      [|
        [ tx ~pre:0 [ Program.Incr a0; Program.Compute 4 ] ];
        [ tx ~pre:40 [ Program.Read a0; Program.Compute 4 ] ];
      |];
    costs;
    expected = [ (a0, 1) ];
    shards = None;
  }

let incr_incr =
  {
    name = "incr-incr";
    descr = "two cores increment the same line under best-effort HTM";
    sysconf = Sysconf.baseline;
    program =
      [| incr_thread ~pre:0 ~txs:2 a0; incr_thread ~pre:3 ~txs:2 a0 |];
    costs;
    expected = [ (a0, 4) ];
    shards = None;
  }

let two_lines =
  {
    name = "two-lines";
    descr = "opposite-order two-line transactions (classic conflict \
             cycle) under recovery";
    sysconf = Sysconf.lockiller_rwi;
    program =
      [|
        [ tx ~pre:0 [ Program.Incr a0; Program.Incr a1 ] ];
        [ tx ~pre:0 [ Program.Incr a1; Program.Incr a0 ] ];
      |];
    costs;
    expected = [ (a0, 2); (a1, 2) ];
    shards = None;
  }

let park_wake =
  {
    name = "park-wake";
    descr = "wait-wakeup rejects park the loser; the winner's commit \
             must wake it";
    sysconf = Sysconf.lockiller_rwi;
    program =
      [| incr_thread ~pre:0 ~txs:2 a0; incr_thread ~pre:1 ~txs:2 a0 |];
    costs;
    expected = [ (a0, 4) ];
    shards = None;
  }

let commit_race =
  {
    name = "commit-race";
    descr = "conflicting increments with a widened commit window \
             (stresses the killed-during-commit guard)";
    sysconf = Sysconf.baseline;
    program =
      [| incr_thread ~pre:0 ~txs:3 a0; incr_thread ~pre:2 ~txs:3 a0 |];
    costs = slow_commit;
    expected = [ (a0, 6) ];
    shards = None;
  }

let fallback_lock =
  {
    name = "fallback-lock";
    descr = "a faulting body exhausts HTM retries and commits via the \
             fallback lock while the other core speculates";
    sysconf = Sysconf.baseline;
    program =
      [|
        [ tx ~pre:0 [ Program.Incr a0; Program.Fault ] ];
        incr_thread ~pre:5 ~txs:2 a0;
      |];
    costs;
    expected = [ (a0, 3) ];
    shards = None;
  }

let cgl =
  {
    name = "cgl";
    descr = "coarse-grained locking baseline: every section takes the \
             TTAS lock";
    sysconf = Sysconf.cgl;
    program =
      [| incr_thread ~pre:0 ~txs:2 a0; incr_thread ~pre:1 ~txs:2 a0 |];
    costs;
    expected = [ (a0, 4) ];
    shards = None;
  }

let htmlock =
  {
    name = "htmlock";
    descr = "full LockillerTM: a faulting transaction becomes a lock \
             transaction (TL) concurrent with HTM";
    sysconf = Sysconf.lockiller;
    program =
      [|
        [ tx ~pre:0 [ Program.Incr a0; Program.Fault; Program.Incr a1 ] ];
        incr_thread ~pre:4 ~txs:2 a0;
      |];
    costs;
    expected = [ (a0, 3); (a1, 1) ];
    shards = None;
  }

let trio =
  {
    name = "trio";
    descr = "three cores contend on one line under wait-wakeup \
             (multi-waiter drains)";
    sysconf = Sysconf.lockiller_rwi;
    program =
      [|
        incr_thread ~pre:0 ~txs:2 a0;
        incr_thread ~pre:1 ~txs:2 a0;
        incr_thread ~pre:2 ~txs:2 a0;
      |];
    costs;
    expected = [ (a0, 6) ];
    shards = None;
  }

let sharded_trio =
  {
    name = "sharded-trio";
    descr = "two-shard directory on three tiles: per-shard traffic \
             plus a cross-shard transaction";
    sysconf = Sysconf.lockiller_rwi;
    program =
      [|
        incr_thread ~pre:0 ~txs:2 a0;
        incr_thread ~pre:1 ~txs:2 a1;
        [ tx ~pre:2 [ Program.Incr a0; Program.Incr a1 ] ];
      |];
    costs;
    expected = [ (a0, 3); (a1, 3) ];
    shards = Some 2;
  }

let hybrid =
  {
    name = "hybrid";
    descr = "HyTM: a faulting transaction falls to the TL2 software \
             path while the other core keeps attempting HTM on the \
             same line";
    sysconf = Sysconf.hytm_gv1;
    program =
      [|
        [ tx ~pre:0 [ Program.Incr a0; Program.Fault ] ];
        incr_thread ~pre:4 ~txs:2 a0;
      |];
    costs;
    expected = [ (a0, 3) ];
    shards = None;
  }

let all =
  [
    read_forward;
    incr_incr;
    two_lines;
    park_wake;
    commit_race;
    fallback_lock;
    cgl;
    htmlock;
    trio;
    sharded_trio;
    hybrid;
  ]

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun s -> String.lowercase_ascii s.name = name) all
