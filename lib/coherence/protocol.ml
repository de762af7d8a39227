module Sim = Lk_engine.Sim
module Stats = Lk_engine.Stats
module Net = Lk_mesh.Network
module Msg = Lk_mesh.Message

type config = {
  cores : int;
  l1_size : int;
  l1_ways : int;
  l1_hit_latency : int;
  llc_size : int;
  llc_ways : int;
  llc_hit_latency : int;
  mem_latency : int;
  exclusive_state : bool;
  dir_pointers : int option;
  (* Directory shards (LLC banks + request FIFOs). 0 means one shard
     per tile — the historical machine. *)
  dir_shards : int;
  dir_hash : Shard.hash;
}

let default_config =
  {
    cores = 32;
    l1_size = 32 * 1024;
    l1_ways = 4;
    l1_hit_latency = 2;
    llc_size = 8 * 1024 * 1024;
    llc_ways = 16;
    llc_hit_latency = 12;
    mem_latency = 100;
    exclusive_state = true;
    dir_pointers = None;
    dir_shards = 0;
    dir_hash = Shard.Mod;
  }

type t = {
  sim : Sim.t;
  net : Net.t;
  cfg : config;
  l1s : L1_cache.t array;
  plan : Shard.t;
  llc : Llc.t;
  mutable client : Client.t;
  (* Where a request's outcome goes: [reply core outcome]. *)
  mutable reply : Types.core_id -> Types.outcome -> unit;
  (* The request store: request [id] is [rq.(4 id .. 4 id + 3)], its
     core (times two, plus one for a write: a [Write] or [Rmw] needs
     exclusive ownership), line, epoch and [next] link. Free ids chain
     through [next] from [rq_free]. A waiting request of a core whose
     attempt has since died stays until [process] drops it. *)
  mutable rq : int array;
  mutable rq_free : int;
  (* Lines with a request being served at their home shard, one
     int-specialised table per shard keyed on the line number: the
     value is [no_waiters], or the last waiter of a circular list
     through [next] whose successor is the first, served FIFO when the
     current request completes. *)
  busy : Lk_engine.Int_table.t array;
  mutable h_arrive : Sim.handler;  (* arg: request id *)
  mutable h_reply : Sim.handler;  (* arg: [reply_arg] *)
  mutable h_grant : Sim.handler;  (* arg: core *)
  mutable h_release : Sim.handler;  (* arg: line *)
  mutable decided : Types.outcome;  (* the last decision's outcome *)
  (* A write decision's scratch: the sharers it started from, and its
     slowest invalidation round trip so far. *)
  members : Llc.members;
  mutable inv_rtt : int;
  (* One byte per core: how the current write to shared data classed
     each sharer (see [dispatch]). *)
  marks : Bytes.t;
  mutable ledger : Lk_engine.Ledger.t option;
  (* Deliberately broken variant for the checker-of-the-checker
     mutation tests; [None] in every real run. *)
  mutable inject : Types.injected_fault option;
  stats : Stats.group;
  s_l1_hits : Stats.counter;
  s_l1_misses : Stats.counter;
  s_stale : Stats.counter;
  s_llc_misses : Stats.counter;
  s_llc_evictions : Stats.counter;
  s_owner_rejects : Stats.counter;
  s_sharer_rejects : Stats.counter;
  s_sig_rejects : Stats.counter;
  s_conflict_aborts : Stats.counter;
  s_invalidations : Stats.counter;
  s_writebacks : Stats.counter;
  s_spills : Stats.counter;
  s_evict_tx_aborts : Stats.counter;
  s_broadcast_invs : Stats.counter;
}

(* Busy-table values besides a waiter id: [not_busy] fills empty slots
   (a lookup's default); [no_waiters] marks a line in service. *)
let not_busy = -1
let no_waiters = -2

let[@inline] rq_core t id = t.rq.(4 * id) lsr 1
let[@inline] rq_write t id = t.rq.(4 * id) land 1 = 1
let[@inline] rq_line t id = t.rq.((4 * id) + 1)
let[@inline] rq_epoch t id = t.rq.((4 * id) + 2)
let[@inline] rq_next t id = t.rq.((4 * id) + 3)
let[@inline] set_next t id n = t.rq.((4 * id) + 3) <- n

let rq_alloc t ~core ~line ~write ~epoch =
  if t.rq_free < 0 then begin
    let n = Array.length t.rq / 4 in
    let m = Int.max 16 (2 * n) in
    t.rq <- Array.append t.rq (Array.make (4 * (m - n)) (-1));
    for id = n to m - 2 do
      t.rq.((4 * id) + 3) <- id + 1
    done;
    t.rq_free <- n
  end;
  let id = t.rq_free in
  t.rq_free <- rq_next t id;
  t.rq.(4 * id) <- (2 * core) + Bool.to_int write;
  t.rq.((4 * id) + 1) <- line;
  t.rq.((4 * id) + 2) <- epoch;
  id

let rq_release t id =
  set_next t id t.rq_free;
  t.rq_free <- id

(* A reply event's argument: the core in the low [Types.core_bits]
   bits, the outcome above them. *)
let core_bits = Types.core_bits

let reply_arg core (outcome : Types.outcome) =
  ((outcome + 2) lsl core_bits) lor core

let make ~sim ~network cfg =
  let tiles = Lk_mesh.Topology.tiles (Net.topology network) in
  if tiles <> cfg.cores then
    invalid_arg
      ("Protocol.create: " ^ string_of_int cfg.cores ^ " cores but "
      ^ string_of_int tiles ^ " mesh tiles");
  if cfg.cores > Coreset.max_cores then
    invalid_arg "Protocol.create: too many cores for the directory bitset";
  let shards = if cfg.dir_shards = 0 then cfg.cores else cfg.dir_shards in
  let plan = Shard.make ~count:shards ~tiles:cfg.cores ~hash:cfg.dir_hash in
  let stats = Stats.group "protocol" in
  {
    sim;
    net = network;
    cfg;
    l1s =
      Array.init cfg.cores (fun _ ->
          L1_cache.create ~size_bytes:cfg.l1_size ~ways:cfg.l1_ways);
    plan;
    llc =
      (* Shard counts that do not divide the LLC size round each bank
         down to whole sets (at least one), undershooting [llc_size]
         by less than one set per bank; divisor counts — every
         historical configuration — are unchanged. *)
      (let set_bytes = cfg.llc_ways * Addr.line_size in
       let bank_size_bytes =
         Int.max set_bytes (cfg.llc_size / shards / set_bytes * set_bytes)
       in
       Llc.create ~plan ~bank_size_bytes ~ways:cfg.llc_ways);
    client = Client.plain;
    reply = (fun _ _ -> ());
    rq = [||];
    rq_free = -1;
    busy =
      (* An aggregate initial capacity of 128 lines, at least 4 a
         shard, so footprint barely scales with the shard count; a
         table doubles when half full. *)
      (let capacity = Int.max 4 (128 / shards) in
       Array.init shards (fun _ ->
           Lk_engine.Int_table.create ~capacity ()));
    h_arrive = Sim.unset;
    h_reply = Sim.unset;
    h_grant = Sim.unset;
    h_release = Sim.unset;
    decided = Types.granted;
    members = Llc.members ();
    inv_rtt = 0;
    marks = Bytes.make cfg.cores '\000';
    ledger = None;
    inject = None;
    stats;
    s_l1_hits = Stats.counter stats "l1_hits";
    s_l1_misses = Stats.counter stats "l1_misses";
    s_stale = Stats.counter stats "stale_requests";
    s_llc_misses = Stats.counter stats "llc_misses";
    s_llc_evictions = Stats.counter stats "llc_evictions";
    s_owner_rejects = Stats.counter stats "owner_rejects";
    s_sharer_rejects = Stats.counter stats "sharer_rejects";
    s_sig_rejects = Stats.counter stats "signature_rejects";
    s_conflict_aborts = Stats.counter stats "conflict_aborts";
    s_invalidations = Stats.counter stats "invalidations";
    s_writebacks = Stats.counter stats "writebacks";
    s_spills = Stats.counter stats "tx_spills";
    s_evict_tx_aborts = Stats.counter stats "tx_eviction_aborts";
    s_broadcast_invs = Stats.counter stats "broadcast_invalidations";
  }

let set_client t client = t.client <- client
let set_reply t reply = t.reply <- reply
let set_ledger t ledger = t.ledger <- Some ledger
let set_inject_bug t fault = t.inject <- fault

(* Ledger feeds from the coherence layer: a [Nack] when the home sends
   a reject reply, an [Abort_kill] when a conflicting holder is aborted
   on behalf of a requester ([core] = victim). Both args are
   [Ledger.pack_attr] of the responsible core (-1 for the LLC overflow
   signatures) and the record core's stall-excluded attempt age, read from the
   client so every conflict edge is causally attributable. *)
let note_nack t ~requester ~by =
  match t.ledger with
  | None -> ()
  | Some l ->
    Lk_engine.Ledger.emit l ~core:requester Lk_engine.Ledger.Nack
      ~arg:
        (Lk_engine.Ledger.pack_attr ~who:by
           ~age:(t.client.Client.tx_age requester))

let note_kill t ~victim ~aggressor =
  match t.ledger with
  | None -> ()
  | Some l ->
    Lk_engine.Ledger.emit l ~core:victim Lk_engine.Ledger.Abort_kill
      ~arg:
        (Lk_engine.Ledger.pack_attr ~who:aggressor
           ~age:(t.client.Client.tx_age victim))

let sim t = t.sim
let network t = t.net
let config t = t.cfg
let l1 t core = t.l1s.(core)
let llc t = t.llc
let stats t = t.stats

let plan t = t.plan
let shard_of t line = Shard.of_line t.plan line
let home_of t line = Shard.home_tile t.plan (Shard.of_line t.plan line)

(* Message helpers. [bg_*] charge traffic for messages that are off the
   request's critical path (writebacks, unblocks, invalidation sends
   overlapped with data). *)
let ctrl t ~src ~dst =
  Net.send ~now:(Sim.now t.sim) t.net ~src ~dst ~class_:Msg.Control

let data t ~src ~dst =
  Net.send ~now:(Sim.now t.sim) t.net ~src ~dst ~class_:Msg.Data
let bg_ctrl t ~src ~dst = ignore (ctrl t ~src ~dst)
let bg_data t ~src ~dst = ignore (data t ~src ~dst)

(* Drop [core] from the directory entry of [line] (silent eviction or
   speculative-line drop). *)
let dir_remove_core t line core =
  if Llc.resident t.llc line then Llc.remove_core t.llc line core

(* [src]'s dirty copy of [line] goes home, off the critical path. *)
let writeback t ~src line =
  Stats.incr t.s_writebacks;
  bg_data t ~src ~dst:(home_of t line);
  Llc.set_dirty t.llc line true

(* Remove [core]'s copy of [line] and drop it from the directory entry.
   A dirty copy is written back; a clean one sends the eviction notice
   when [notice]. *)
let drop_copy t ~core ~notice line =
  let f = L1_cache.remove t.l1s.(core) line in
  dir_remove_core t line core;
  if L1_cache.dirty f then writeback t ~src:core line
  else if notice then bg_ctrl t ~src:core ~dst:(home_of t line)

let commit_flush t core =
  L1_cache.clear_tx t.l1s.(core) ~drop_written:false ignore

(* Speculatively written lines are dropped by [clear_tx]; the directory
   must stop naming this core as owner. The LLC still holds the
   pre-transactional data. *)
let abort_flush t core =
  L1_cache.clear_tx t.l1s.(core) ~drop_written:true (fun line ->
      dir_remove_core t line core)

(* Invalidate [core]'s copy of [line] (back-invalidation or write
   request), handling transactional copies through the client's
   eviction hook. Returns extra latency charged by the directive. *)
let rec flush_l1_copy t ~core ~line ~extra =
  let f = L1_cache.flags_of t.l1s.(core) line in
  if f = L1_cache.absent then extra
  else if L1_cache.in_tx f then begin
    let view = Option.get (L1_cache.lookup t.l1s.(core) line) in
    match t.client.Client.on_tx_eviction ~core ~view with
    | Client.Abort_tx e ->
      Stats.incr t.s_evict_tx_aborts;
      (* The abort cleared tx metadata; written lines are gone, read
         lines remain and are flushed below. *)
      flush_l1_copy t ~core ~line ~extra:(extra + e)
    | Client.Spill { write = _; extra = e } ->
      Stats.incr t.s_spills;
      drop_copy t ~core ~notice:true line;
      extra + e
  end
  else begin
    Stats.incr t.s_invalidations;
    drop_copy t ~core ~notice:true line;
    extra
  end

(* Make the line resident in its home LLC bank. Returns extra latency
   (memory fetch, back-invalidation fallout). *)
let ensure_llc_resident t line =
  match Llc.room_for t.llc line with
  | Llc.Present -> 0
  | room ->
    Stats.incr t.s_llc_misses;
    let extra = ref t.cfg.mem_latency in
    (match room with
    | Llc.Present | Llc.Free -> ()
    | Llc.Evict victim ->
      Stats.incr t.s_llc_evictions;
      (* Inclusive LLC: L1 copies of the victim must die first. *)
      let copies =
        match victim.dir with
        | Llc.Owner o -> [ o ]
        | Llc.Sharers s -> Coreset.elements s
      in
      List.iter
        (fun c -> extra := flush_l1_copy t ~core:c ~line:victim.line ~extra:!extra)
        copies;
      let v = Llc.evict t.llc victim.line in
      if v.dirty then bg_data t ~src:(home_of t victim.line) ~dst:(home_of t victim.line));
    Llc.insert t.llc line;
    !extra

(* Make room in the requester's L1 for its absent [line]. Returns extra
   latency. *)
let make_room t ~core ~line =
  let l1 = t.l1s.(core) in
  let rec go extra guard =
    if guard > 2 * t.cfg.l1_ways then
      failwith "Protocol.make_room: cannot free a way";
    let v = L1_cache.victim l1 line in
    if v < 0 then extra
    else go (flush_l1_copy t ~core ~line:v ~extra) (guard + 1)
  in
  go 0 0

(* Install a granted line in the requester's L1 (or upgrade in place).
   Returns extra latency from evictions. The requester's transaction
   may have died while the request was in flight (or may die right here
   if its own victim line is transactional): we re-check the context
   and skip tx marking for stale requests. *)
let install t id ~state =
  let core = rq_core t id and line = rq_line t id in
  let l1 = t.l1s.(core) in
  let i = L1_cache.probe l1 line in
  let extra =
    if i >= 0 then begin
      L1_cache.set_state_at l1 i state;
      L1_cache.touch_at l1 i;
      0
    end
    else begin
      let extra = make_room t ~core ~line in
      L1_cache.insert l1 line state;
      extra
    end
  in
  let party = t.client.Client.context ~core ~epoch:(rq_epoch t id) in
  if party <> Types.no_party && Types.in_tx party then
    L1_cache.mark_tx l1 line ~write:(rq_write t id);
  extra

(* Refuse request [id] on behalf of [by] (a core, or
   [Types.rejected_by_signatures]), counting it on [counter]. *)
let reject t id counter ~by =
  let core = rq_core t id in
  Stats.incr counter;
  note_nack t ~requester:core ~by;
  t.client.Client.on_reject ~requester:core ~by;
  by

(* Abort the conflicting holder [victim] on behalf of request [id]. *)
let kill t id party victim =
  let core = rq_core t id in
  Stats.incr t.s_conflict_aborts;
  note_kill t ~victim ~aggressor:core;
  t.client.Client.abort ~victim ~aggressor:core
    ~aggressor_mode:(Types.party_mode party) ~line:(rq_line t id)

(* --- The decision procedure, running at the home bank. --------------
   Returns the request outcome and its completion latency relative to
   the decision cycle; all state changes happen here, atomically. *)

(* How the first pass of a write to shared data classed each other
   sharer, in [marks]: [plain] holds no tx bits; the rest arbitrated
   against the requester and either keep the line ([winner]) or abort
   ([loser]). *)
let unmarked = '\000'
let plain = '\001'
let loser = '\002'
let winner = '\003'

(* The least core at or above [c] of the sharers snapshot
   [t.members] marked [mark], or -1. *)
let rec next_marked t mark c =
  let c = Llc.next t.llc t.members c in
  if c < 0 || Bytes.get t.marks c = mark then c else next_marked t mark (c + 1)

(* An invalidation round trip to [c], folded into [t.inv_rtt], the
   slowest so far. *)
let charge_rtt t ~home c =
  let rtt =
    ctrl t ~src:home ~dst:c + t.cfg.l1_hit_latency + ctrl t ~src:c ~dst:home
  in
  if rtt > t.inv_rtt then t.inv_rtt <- rtt

let charge_marked t mark ~home =
  let c = ref (next_marked t mark 0) in
  while !c >= 0 do
    charge_rtt t ~home !c;
    c := next_marked t mark (!c + 1)
  done

(* Invalidate the copies of the sharers marked [mark], ascending. *)
let flush_marked t mark line =
  let c = ref (next_marked t mark 0) in
  while !c >= 0 do
    ignore (flush_l1_copy t ~core:!c ~line ~extra:0);
    c := next_marked t mark (!c + 1)
  done

let rec dispatch t id party ~home ~extra ~depth =
  if depth > 3 then failwith "Protocol.dispatch: conflict resolution loop";
  let core = rq_core t id and line = rq_line t id and write = rq_write t id in
  let llc_lat = t.cfg.llc_hit_latency in
  let o = Llc.owner t.llc line in
  if o = core then failwith "Protocol.dispatch: request from the current owner"
  else if o >= 0 then begin
    let of_ = L1_cache.flags_of t.l1s.(o) line in
    if of_ = L1_cache.absent then
      failwith "Protocol.dispatch: directory owner has no L1 copy";
    let conflict =
      if write then L1_cache.in_tx of_ else L1_cache.tx_write of_
    in
    if conflict then begin
      match
        t.client.Client.resolve ~requester:core ~requester_party:party
          ~holder:o ~holder_party:(t.client.Client.party_of o)
      with
      | Client.Reject_requester ->
        t.decided <- reject t id t.s_owner_rejects ~by:o;
        llc_lat + extra
        + ctrl t ~src:home ~dst:o
        + t.cfg.l1_hit_latency
        + ctrl t ~src:o ~dst:home
        + ctrl t ~src:home ~dst:core
      | Client.Abort_holder ->
        kill t id party o;
        (* NACK leg: home -> owner -> home, then retry the decision
           against the post-abort state (Fig 3's red-arrow flow). *)
        let leg =
          ctrl t ~src:home ~dst:o + t.cfg.l1_hit_latency
          + ctrl t ~src:o ~dst:home
        in
        dispatch t id party ~home ~extra:(extra + leg) ~depth:(depth + 1)
    end
    else begin
      (* Plain MESI forward. *)
      let fwd = ctrl t ~src:home ~dst:o + t.cfg.l1_hit_latency in
      if write then begin
        let f = L1_cache.remove t.l1s.(o) line in
        Stats.incr t.s_invalidations;
        if L1_cache.dirty f then writeback t ~src:o line;
        Llc.set_owner t.llc line core;
        let inst = install t id ~state:L1_cache.M in
        t.decided <- Types.granted;
        llc_lat + extra + fwd + data t ~src:o ~dst:core + inst
      end
      else begin
        if L1_cache.dirty of_ then begin
          writeback t ~src:o line;
          L1_cache.clear_dirty t.l1s.(o) line
        end;
        (* The injected SWMR mutation skips exactly this downgrade: the
           directory then lists two sharers while the old owner still
           holds the line in M/E. *)
        (match t.inject with
        | Some Types.Swmr_violation -> ()
        | Some _ | None -> L1_cache.set_state t.l1s.(o) line L1_cache.S);
        Llc.clear t.llc line;
        Llc.add_sharer t.llc line o;
        Llc.add_sharer t.llc line core;
        let inst = install t id ~state:L1_cache.S in
        t.decided <- Types.granted;
        llc_lat + extra + fwd + data t ~src:o ~dst:core + inst
      end
    end
  end
  else if not write then begin
    Llc.snapshot t.llc line t.members;
    let n = Llc.count t.llc t.members in
    let alone =
      t.cfg.exclusive_state
      && (n = 0 || (n = 1 && Llc.is_sharer t.llc line core))
    in
    let state = if alone then L1_cache.E else L1_cache.S in
    (* An Exclusive grant makes the requester the owner in the
       directory's eyes; a shared grant extends the sharer list. *)
    if alone then Llc.set_owner t.llc line core
    else Llc.add_sharer t.llc line core;
    Llc.touch t.llc line;
    let inst = install t id ~state in
    t.decided <- Types.granted;
    llc_lat + extra + data t ~src:home ~dst:core + inst
  end
  else begin
    (* Write (possibly an upgrade): every other sharer must go. First
       mark each one, arbitrating with the transactional ones in
       ascending core order; the lowest winner names the reject. *)
    Llc.snapshot t.llc line t.members;
    let first_winner = ref (-1) in
    let c = ref (Llc.next t.llc t.members 0) in
    while !c >= 0 do
      let other = !c in
      let mark =
        if other = core then unmarked
        else begin
          let f = L1_cache.flags_of t.l1s.(other) line in
          if f = L1_cache.absent then
            failwith "Protocol.dispatch: directory sharer has no copy";
          if not (L1_cache.in_tx f) then plain
          else
            match
              t.client.Client.resolve ~requester:core ~requester_party:party
                ~holder:other ~holder_party:(t.client.Client.party_of other)
            with
            | Client.Reject_requester ->
              if !first_winner < 0 then first_winner := other;
              winner
            | Client.Abort_holder -> loser
        end
      in
      Bytes.set t.marks other mark;
      c := Llc.next t.llc t.members (other + 1)
    done;
    (* Losers abort even when the request is ultimately rejected: each
       sharer arbitrates locally (Fig 4). *)
    let c = ref (next_marked t loser 0) in
    while !c >= 0 do
      kill t id party !c;
      c := next_marked t loser (!c + 1)
    done;
    (* Invalidate every non-winner copy still resident (aborts keep
       read lines valid), plain sharers first, then losers. Latency is
       the slowest invalidation round-trip, all in parallel. Under a
       limited-pointer directory whose pointers have overflowed, the
       home does not know the sharers and must broadcast to every
       core. *)
    let broadcast =
      match t.cfg.dir_pointers with
      | Some k -> Llc.count t.llc t.members > k
      | None -> false
    in
    t.inv_rtt <- 0;
    if broadcast then begin
      Stats.incr t.s_broadcast_invs;
      for c = 0 to t.cfg.cores - 1 do
        if c <> core then charge_rtt t ~home c
      done
    end
    else begin
      charge_marked t plain ~home;
      charge_marked t loser ~home
    end;
    flush_marked t plain line;
    flush_marked t loser line;
    let inv_rtt = t.inv_rtt in
    if !first_winner >= 0 then begin
      let resident = L1_cache.resident t.l1s.(core) line in
      Llc.clear t.llc line;
      if resident then Llc.add_sharer t.llc line core;
      let c = ref (next_marked t winner 0) in
      while !c >= 0 do
        Llc.add_sharer t.llc line !c;
        c := next_marked t winner (!c + 1)
      done;
      t.decided <- reject t id t.s_sharer_rejects ~by:!first_winner;
      llc_lat + extra + inv_rtt + ctrl t ~src:home ~dst:core
    end
    else begin
      Llc.set_owner t.llc line core;
      Llc.touch t.llc line;
      let was_resident = L1_cache.resident t.l1s.(core) line in
      let inst = install t id ~state:L1_cache.M in
      let transfer =
        if was_resident then ctrl t ~src:home ~dst:core
        else data t ~src:home ~dst:core
      in
      let slower = if inv_rtt > transfer then inv_rtt else transfer in
      t.decided <- Types.granted;
      llc_lat + extra + inst + slower
    end
  end

(* Serve request [id] at the head of its line queue, and free it.
   Returns the busy window (cycles until the home frees the line). *)
let process t id =
  let core = rq_core t id and line = rq_line t id and write = rq_write t id in
  let party = t.client.Client.context ~core ~epoch:(rq_epoch t id) in
  if party = Types.no_party then begin
    (* The issuing transaction died after issue: drop without side
       effects. The reply still goes out (the core discards it by
       epoch). *)
    Stats.incr t.s_stale;
    rq_release t id;
    t.reply core Types.granted;
    0
  end
  else begin
    let home = home_of t line in
    let extra = ensure_llc_resident t line in
    Llc.touch t.llc line;
    let would_be_exclusive = (not write) && Llc.unshared t.llc line in
    let lat =
      match
        t.client.Client.llc_check ~requester:core
          ~requester_mode:(Types.party_mode party) ~line ~write
          ~would_be_exclusive
      with
      | Some Client.Reject_requester ->
        t.decided <-
          reject t id t.s_sig_rejects ~by:Types.rejected_by_signatures;
        t.cfg.llc_hit_latency + extra + ctrl t ~src:home ~dst:core
      | Some Client.Abort_holder ->
        failwith "Protocol.process: llc_check returned Abort_holder"
      | None -> dispatch t id party ~home ~extra ~depth:0
    in
    rq_release t id;
    (* The unblock message closing the directory transaction (traffic
       only), then the reply, which runs at the requester's tile. *)
    bg_ctrl t ~src:core ~dst:home;
    Sim.post t.sim ~delay:lat t.h_reply (reply_arg core t.decided);
    lat
  end

(* The request at the head of [line]'s queue completed: serve the next
   waiter, or free the line. *)
let release t line =
  let busy = t.busy.(shard_of t line) in
  let tail = Lk_engine.Int_table.find busy line ~default:not_busy in
  if tail = not_busy then failwith "Protocol.release: line not busy"
  else if tail = no_waiters then Lk_engine.Int_table.remove busy line
  else begin
    let head = rq_next t tail in
    if head = tail then Lk_engine.Int_table.replace busy line no_waiters
    else set_next t tail (rq_next t head);
    Sim.post t.sim ~delay:(process t head) t.h_release line
  end

let arrive t id =
  let line = rq_line t id in
  let busy = t.busy.(shard_of t line) in
  let tail = Lk_engine.Int_table.find busy line ~default:not_busy in
  if tail = not_busy then begin
    Lk_engine.Int_table.replace busy line no_waiters;
    Sim.post t.sim ~delay:(process t id) t.h_release line
  end
  else begin
    if tail = no_waiters then set_next t id id
    else begin
      set_next t id (rq_next t tail);
      set_next t tail id
    end;
    Lk_engine.Int_table.replace busy line id
  end

let access t ~core ~line ~what ~epoch =
  if core < 0 || core >= t.cfg.cores then
    invalid_arg "Protocol.access: core out of range";
  if line < 0 then invalid_arg "Protocol.access: negative line";
  let write = Types.is_write what in
  let l1c = t.l1s.(core) in
  let i = L1_cache.probe l1c line in
  let f = if i < 0 then L1_cache.absent else L1_cache.flags_at l1c i in
  if i >= 0 && ((not write) || L1_cache.exclusive f) then begin
    Stats.incr t.s_l1_hits;
    L1_cache.touch_at l1c i;
    let in_tx = Types.in_tx (t.client.Client.party_of core) in
    if write then begin
      if in_tx && L1_cache.dirty f && not (L1_cache.tx_write f) then
        (* First speculative write to a non-speculatively dirty line:
           push the pre-transactional data to the LLC so an abort can
           recover it (eager-versioning bookkeeping). *)
        writeback t ~src:core line;
      L1_cache.set_state_at l1c i L1_cache.M
    end;
    if in_tx then L1_cache.mark_tx_at l1c i line ~write;
    Sim.post t.sim ~delay:t.cfg.l1_hit_latency t.h_grant core
  end
  else begin
    Stats.incr t.s_l1_misses;
    let lat = t.cfg.l1_hit_latency + ctrl t ~src:core ~dst:(home_of t line) in
    Sim.post t.sim ~delay:lat t.h_arrive (rq_alloc t ~core ~line ~write ~epoch)
  end

let create ~sim ~network cfg =
  let t = make ~sim ~network cfg in
  t.h_arrive <-
    Sim.handler sim ~name:"protocol.arrive" (fun id -> arrive t id);
  t.h_reply <-
    Sim.handler sim ~name:"protocol.reply" (fun arg ->
        t.reply (arg land ((1 lsl core_bits) - 1)) ((arg lsr core_bits) - 2));
  t.h_grant <-
    Sim.handler sim ~name:"protocol.grant" (fun core ->
        t.reply core Types.granted);
  t.h_release <-
    Sim.handler sim ~name:"protocol.release" (fun line -> release t line);
  t

let flush_core t core =
  let l1c = t.l1s.(core) in
  let lines = ref [] in
  L1_cache.iter l1c (fun v -> lines := v.L1_cache.line :: !lines);
  List.iter (drop_copy t ~core ~notice:false) !lines;
  List.length !lines

(* --- Invariant checking (tests). ------------------------------------ *)

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  (* Directory side, bank by bank: every resident line hashes to the
     shard whose bank holds it, and every L1 copy its entry names
     exists in the state the entry implies (the owner in M/E, each
     sharer in S). Shard consistency also covers the busy FIFOs and
     the home tiles: one wrong hash or a FIFO filed under the wrong
     shard would let two shards serve the same line concurrently — the
     sharded equivalent of an SWMR violation. *)
  for s = 0 to Shard.count t.plan - 1 do
    let home = Shard.home_tile t.plan s in
    if home < 0 || home >= t.cfg.cores then
      fail "shard %d: home tile %d out of range" s home;
    Llc.iter_shard t.llc s (fun (v : Llc.view) ->
        if Shard.of_line t.plan v.line <> s then
          fail "line %d: resident in bank %d but hashes to shard %d" v.line s
            (Shard.of_line t.plan v.line);
        match v.dir with
        | Llc.Owner o -> (
          match L1_cache.lookup t.l1s.(o) v.line with
          | Some lv
            when lv.L1_cache.state = L1_cache.M
                 || lv.L1_cache.state = L1_cache.E ->
            ()
          | Some _ -> fail "line %d: directory owner %d holds it in S" v.line o
          | None -> fail "line %d: directory owner %d has no copy" v.line o)
        | Llc.Sharers sharers ->
          Coreset.iter
            (fun c ->
              match L1_cache.lookup t.l1s.(c) v.line with
              | None -> fail "line %d: directory lists %d but no copy" v.line c
              | Some lv ->
                if lv.L1_cache.state <> L1_cache.S then
                  fail "line %d: sharer %d holds it in M/E" v.line c)
            sharers);
    Lk_engine.Int_table.iter t.busy.(s) (fun line _q ->
        if Shard.of_line t.plan line <> s then
          fail "line %d: busy at shard %d but hashes to shard %d" line s
            (Shard.of_line t.plan line))
  done;
  (* Cache side: every L1 copy is LLC-resident (inclusivity) and named
     by its directory entry. With the directory side this is SWMR and
     directory exactness, at a cost of O(resident lines + L1 slots)
     rather than a directory probe per core per LLC slot. *)
  Array.iteri
    (fun c l1c ->
      L1_cache.iter l1c (fun lv ->
          let line = lv.L1_cache.line in
          match Llc.lookup t.llc line with
          | None -> fail "line %d: resident in L1 %d but not in LLC" line c
          | Some { Llc.dir = Llc.Owner o; _ } ->
            if o <> c then
              fail "line %d: owned by %d but also resident at %d" line o c
          | Some { Llc.dir = Llc.Sharers sharers; _ } ->
            if not (Coreset.mem c sharers) then
              fail "line %d: resident at %d but not in directory" line c))
    t.l1s
