module Sim = Lk_engine.Sim
module Ledger = Lk_engine.Ledger
module Topology = Lk_mesh.Topology
module Network = Lk_mesh.Network
module Protocol = Lk_coherence.Protocol
module Coreset = Lk_coherence.Coreset
module L1_cache = Lk_coherence.L1_cache
module Llc = Lk_coherence.Llc
module Types = Lk_coherence.Types
module Store = Lk_htm.Store
module Txstate = Lk_htm.Txstate
module Runtime = Lk_lockiller.Runtime
module Core = Lk_cpu.Core
module Accounting = Lk_cpu.Accounting

exception Violation_found of Invariant.violation

type status =
  | Completed
  | Violated of Invariant.violation
  | Livelocked of string

type run = {
  status : status;
  decisions : (int * int) array;
  fingerprints : int array;
  cycles : int;
  events : int;
}

let default_cycle_limit = 200_000

(* --- State fingerprinting ---------------------------------------------- *)

(* Hash of the architecturally visible state, used by the explorer to
   deduplicate decision points. Pending-event thunks are opaque, so the
   architectural state alone under-distinguishes; folding in the
   pending-event count (and, at the caller, the decision index's
   position implicitly via DFS structure) keeps dedup conservative
   enough in practice. See docs/CHECKING.md for the soundness caveat. *)
let fingerprint rt ~pending =
  let proto = Runtime.protocol rt in
  let store = Runtime.store rt in
  let cores = (Protocol.config proto).Protocol.cores in
  let h = ref 0x9E3779B9 in
  let add x = h := ((!h * 1000003) lxor x) land max_int in
  let add_pairs pairs =
    List.iter
      (fun (a, v) ->
        add a;
        add v)
      (List.sort
         (fun (a, _) (b, _) -> Int.compare a b)
         pairs)
  in
  for c = 0 to cores - 1 do
    L1_cache.iter (Protocol.l1 proto c) (fun v ->
        add v.L1_cache.line;
        add
          ((match v.L1_cache.state with
           | L1_cache.M -> 0
           | L1_cache.E -> 1
           | L1_cache.S -> 2)
          lor (if v.L1_cache.dirty then 4 else 0)
          lor (if v.L1_cache.tx_read then 8 else 0)
          lor if v.L1_cache.tx_write then 16 else 0));
    let x = Runtime.ctx rt c in
    add
      (match x.Txstate.mode with
      | Txstate.Idle -> 0
      | Txstate.Htm -> 1
      | Txstate.Tl -> 2
      | Txstate.Stl -> 3
      | Txstate.Sw -> 4);
    add x.Txstate.rv;
    add x.Txstate.epoch;
    add x.Txstate.insts;
    add x.Txstate.progress;
    add x.Txstate.attempt;
    add x.Txstate.tx_seq;
    add (if x.Txstate.switch_tried then 1 else 0);
    add (if Runtime.is_parked rt c then 1 else 0);
    add (if Runtime.has_pending_wake rt c then 1 else 0);
    List.iter add (Runtime.wake_waiters rt ~rejector:c);
    let buf = ref [] in
    Store.iter_buffered store ~core:c (fun a v -> buf := (a, v) :: !buf);
    add_pairs !buf;
    (* Software-path bookkeeping (read/write sets, commit-time lock
       ownership) lives outside committed memory but drives future
       validation outcomes — fold it in too. *)
    let sw = Runtime.sw_path rt in
    Lk_htm.Sw_path.iter_reads sw ~core:c (fun slot ver ->
        add slot;
        add ver);
    Lk_htm.Sw_path.iter_writes sw ~core:c add
  done;
  (let sw = Runtime.sw_path rt in
   for s = 0 to Lk_htm.Sw_path.slots - 1 do
     match Lk_htm.Sw_path.owner sw s with
     | None -> ()
     | Some c ->
       add s;
       add c
   done);
  Llc.iter (Protocol.llc proto) (fun v ->
      add v.Llc.line;
      add (if v.Llc.dirty then 1 else 0);
      match v.Llc.dir with
      | Llc.Owner o -> add (3 + o)
      | Llc.Sharers s ->
        add 1;
        List.iter add (Coreset.elements s));
  let mem = ref [] in
  Store.iter_committed store (fun a v -> mem := (a, v) :: !mem);
  add_pairs !mem;
  (match Runtime.arbiter_holder rt with None -> add 613 | Some c -> add c);
  (match Runtime.sig_owner rt with None -> add 617 | Some c -> add c);
  add pending;
  !h

(* --- One controlled run ------------------------------------------------ *)

let run ?(check_states = true) ?(cycle_limit = default_cycle_limit)
    ?inject_bug ~choose (scenario : Scenario.t) =
  let threads = Array.length scenario.Scenario.program in
  let topo = Topology.create ~rows:1 ~cols:threads in
  let sim = Sim.create () in
  let net = Network.create topo in
  let cfg =
    {
      Protocol.default_config with
      Protocol.cores = threads;
      l1_size = 1024;
      l1_ways = 2;
      l1_hit_latency = 1;
      llc_size = threads * 4096;
      llc_ways = 4;
      llc_hit_latency = 3;
      mem_latency = 10;
      dir_shards =
        (match scenario.Scenario.shards with None -> 0 | Some s -> s);
    }
  in
  let proto = Protocol.create ~sim ~network:net cfg in
  let store = Store.create ~cores:threads in
  let rt =
    Runtime.create ~costs:scenario.Scenario.costs ?inject_bug ~protocol:proto
      ~store ~sysconf:scenario.Scenario.sysconf ~lock_addr:0 ()
  in
  ignore (Runtime.enable_oracle rt);
  let ledger = Runtime.enable_ledger ~capacity:4096 rt in
  let decisions = ref [] in
  let fps = ref [] in
  let ndec = ref 0 in
  Sim.set_chooser sim
    (Some
       (fun arity ->
         let fp = fingerprint rt ~pending:(Sim.pending sim) in
         let c = choose ~index:!ndec ~arity in
         let c = if c < 0 || c >= arity then 0 else c in
         decisions := (c, arity) :: !decisions;
         fps := fp :: !fps;
         incr ndec;
         c));
  if check_states then
    Sim.set_observer sim
      (Some
         (fun () ->
           match Invariant.check_state rt with
           | None -> ()
           | Some v -> raise (Violation_found v)));
  Ledger.set_sink ledger
    (Some
       (fun ~time:_ ~core ~kind ~arg ->
         match Invariant.check_event rt ~kind ~core ~arg with
         | None -> ()
         | Some v -> raise (Violation_found v)));
  let finished = ref 0 in
  let acct = Accounting.create ~cores:threads in
  let cores =
    Array.init threads (fun i ->
        Core.spawn ~runtime:rt ~core:i ~accounting:acct
          ~on_done:(fun () -> incr finished)
          ())
  in
  Array.iteri
    (fun i thread -> Core.drive cores.(i) Lk_cpu.Program.(stream (cursor thread)))
    scenario.Scenario.program;
  let check_expected () =
    List.find_map
      (fun (addr, want) ->
        let got = Store.committed store addr in
        if got = want then None
        else
          Some
            {
              Invariant.invariant = "conservation";
              detail =
                (* end-of-run diagnostic, not simulation-hot *)
                Printf.sprintf (* lint-ok *)
                  "address %#x committed %d but a correct run commits %d" addr
                  got want;
            })
      scenario.Scenario.expected
  in
  let status =
    match Sim.run ~limit:cycle_limit sim with
    | () ->
      if !finished < threads then
        Livelocked
          (string_of_int (threads - !finished)
          ^ " of "
          ^ string_of_int threads
          ^ " threads unfinished at the cycle limit")
      else begin
        match Invariant.check_end rt with
        | v :: _ -> Violated v
        | [] -> (
          match check_expected () with
          | Some v -> Violated v
          | None -> Completed)
      end
    | exception Violation_found v -> Violated v
    | exception Sim.Stalled msg -> Livelocked msg
    | exception (Failure msg | Invalid_argument msg) ->
      Violated { Invariant.invariant = "crash"; detail = msg }
  in
  {
    status;
    decisions = Array.of_list (List.rev !decisions);
    fingerprints = Array.of_list (List.rev !fps);
    cycles = Sim.now sim;
    events = Sim.events sim;
  }

let choices r = Array.map fst r.decisions

let replay ?check_states ?cycle_limit ?inject_bug ~schedule scenario =
  run ?check_states ?cycle_limit ?inject_bug
    ~choose:(fun ~index ~arity ->
      if index < Array.length schedule then
        let c = schedule.(index) in
        if c >= arity then 0 else c
      else 0)
    scenario

let default ?check_states ?cycle_limit ?inject_bug scenario =
  replay ?check_states ?cycle_limit ?inject_bug ~schedule:[||] scenario
