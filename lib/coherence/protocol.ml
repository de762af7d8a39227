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

type request = {
  core : Types.core_id;
  line : Types.line;
  write : bool;  (* a [Write] or [Rmw]: needs exclusive ownership *)
  epoch : int;
  k : Types.outcome -> unit;
}

type t = {
  sim : Sim.t;
  net : Net.t;
  cfg : config;
  l1s : L1_cache.t array;
  plan : Shard.t;
  llc : Llc.t;
  mutable client : Client.t;
  (* Lines with a request being served at their home shard; waiters
     are served FIFO when the current request completes. One
     int-specialised table per shard, keyed on the line number — this
     is touched twice per L1 miss, and keeping the tables per shard
     shrinks each one. *)
  busy : request Queue.t Lk_engine.Int_table.t array;
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

(* Shared values of the busy tables, never pushed to: [not_busy] fills
   empty slots (a lookup's default), and [no_waiters] marks a line in
   service with an empty FIFO, so an uncontended request allocates no
   queue. A queue is made when a second request arrives. *)
let not_busy : request Queue.t = Queue.create ()
let no_waiters : request Queue.t = Queue.create ()

let create ~sim ~network cfg =
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
    busy =
      (* Aggregate initial capacity matches the historical single
         table, so footprint does not scale with the shard count. *)
      (let capacity = Int.max 16 (256 / shards) in
       Array.init shards (fun _ ->
           Lk_engine.Int_table.create ~capacity ~dummy:not_busy ()));
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

let in_tx_mode (party : Types.party) = party.Types.mode <> Types.Non_tx

(* Drop [core] from the directory entry of [line] (silent eviction or
   speculative-line drop). *)
let dir_remove_core t line core =
  if Llc.resident t.llc line then
    match Llc.dir_of t.llc line with
    | Llc.Owner o ->
      if o = core then Llc.set_dir t.llc line (Llc.Sharers Coreset.empty)
    | Llc.Sharers s ->
      if Coreset.mem core s then
        Llc.set_dir t.llc line (Llc.Sharers (Coreset.remove core s))

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

(* Make room in the requester's L1 for [line], starting from [room],
   what [L1_cache.room_for] answered. Returns extra latency. *)
let make_room t ~core ~line room =
  let l1 = t.l1s.(core) in
  let rec go room extra guard =
    if guard > 2 * t.cfg.l1_ways then
      failwith "Protocol.make_room: cannot free a way";
    match room with
    | L1_cache.Present | L1_cache.Free -> extra
    | L1_cache.Evict v ->
      let extra = flush_l1_copy t ~core ~line:v.line ~extra in
      go (L1_cache.room_for l1 line) extra (guard + 1)
  in
  go room 0 0

(* Install a granted line in the requester's L1 (or upgrade in place).
   Returns extra latency from evictions. The requester's transaction
   may have died while the request was in flight (or may die right here
   if its own victim line is transactional): we re-check the context
   and skip tx marking for stale requests. *)
let install t req ~state =
  let l1 = t.l1s.(req.core) in
  let write = req.write in
  let extra =
    match L1_cache.room_for l1 req.line with
    | L1_cache.Present ->
      L1_cache.set_state l1 req.line state;
      L1_cache.touch l1 req.line;
      0
    | (L1_cache.Free | L1_cache.Evict _) as room ->
      let extra = make_room t ~core:req.core ~line:req.line room in
      L1_cache.insert l1 req.line state;
      extra
  in
  (match t.client.Client.context ~core:req.core ~epoch:req.epoch with
  | Some party when in_tx_mode party ->
    L1_cache.mark_tx l1 req.line ~write
  | Some _ | None -> ());
  extra

(* Refuse [req] on behalf of [by] ([None]: the LLC overflow
   signatures), counting it on [counter]. *)
let reject t req counter ~by =
  Stats.incr counter;
  note_nack t ~requester:req.core ~by:(match by with Some c -> c | None -> -1);
  t.client.Client.on_reject ~requester:req.core ~by ~line:req.line;
  Types.Rejected { by }

(* Abort the conflicting holder [victim] on behalf of [req]. *)
let kill t req (party : Types.party) victim =
  Stats.incr t.s_conflict_aborts;
  note_kill t ~victim ~aggressor:req.core;
  t.client.Client.abort ~victim ~aggressor:req.core
    ~aggressor_mode:party.Types.mode ~line:req.line

let finish t req outcome ~home ~latency =
  (* Unblock message closing the directory transaction (traffic only). *)
  bg_ctrl t ~src:req.core ~dst:home;
  (* The completion runs at the requester's tile. *)
  Sim.schedule t.sim ~delay:latency (fun () -> req.k outcome)

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

(* [f c] for every core [c] of [s] marked [mark], ascending. *)
let iter_marked t s mark f =
  let c = ref (Coreset.next s 0) in
  while !c >= 0 do
    if Bytes.get t.marks !c = mark then f !c;
    c := Coreset.next s (!c + 1)
  done

let rec dispatch t req (party : Types.party) ~home ~extra ~depth =
  if depth > 3 then failwith "Protocol.dispatch: conflict resolution loop";
  let write = req.write in
  let llc_lat = t.cfg.llc_hit_latency in
  match Llc.dir_of t.llc req.line with
  | Llc.Owner o when o = req.core ->
    failwith "Protocol.dispatch: request from the current owner"
  | Llc.Owner o -> begin
    let of_ = L1_cache.flags_of t.l1s.(o) req.line in
    if of_ = L1_cache.absent then
      failwith "Protocol.dispatch: directory owner has no L1 copy";
    let conflict =
      if write then L1_cache.in_tx of_ else L1_cache.tx_write of_
    in
    if conflict then begin
      let holder = t.client.Client.party_of o in
      match
        t.client.Client.resolve ~requester:(req.core, party) ~holder:(o, holder)
          ~line:req.line ~write
      with
      | Client.Reject_requester ->
        let outcome = reject t req t.s_owner_rejects ~by:(Some o) in
        let lat =
          llc_lat + extra
          + ctrl t ~src:home ~dst:o
          + t.cfg.l1_hit_latency
          + ctrl t ~src:o ~dst:home
          + ctrl t ~src:home ~dst:req.core
        in
        (outcome, lat)
      | Client.Abort_holder ->
        kill t req party o;
        (* NACK leg: home -> owner -> home, then retry the decision
           against the post-abort state (Fig 3's red-arrow flow). *)
        let leg =
          ctrl t ~src:home ~dst:o + t.cfg.l1_hit_latency
          + ctrl t ~src:o ~dst:home
        in
        dispatch t req party ~home ~extra:(extra + leg) ~depth:(depth + 1)
    end
    else begin
      (* Plain MESI forward. *)
      let fwd = ctrl t ~src:home ~dst:o + t.cfg.l1_hit_latency in
      if write then begin
        let f = L1_cache.remove t.l1s.(o) req.line in
        Stats.incr t.s_invalidations;
        if L1_cache.dirty f then writeback t ~src:o req.line;
        Llc.set_dir t.llc req.line (Llc.Owner req.core);
        let inst = install t req ~state:L1_cache.M in
        (Types.Granted, llc_lat + extra + fwd + data t ~src:o ~dst:req.core + inst)
      end
      else begin
        if L1_cache.dirty of_ then begin
          writeback t ~src:o req.line;
          L1_cache.clear_dirty t.l1s.(o) req.line
        end;
        (* The injected SWMR mutation skips exactly this downgrade: the
           directory then lists two sharers while the old owner still
           holds the line in M/E. *)
        (match t.inject with
        | Some Types.Swmr_violation -> ()
        | Some _ | None -> L1_cache.set_state t.l1s.(o) req.line L1_cache.S);
        Llc.set_dir t.llc req.line
          (Llc.Sharers (Coreset.of_list [ o; req.core ]));
        let inst = install t req ~state:L1_cache.S in
        (Types.Granted, llc_lat + extra + fwd + data t ~src:o ~dst:req.core + inst)
      end
    end
  end
  | Llc.Sharers s when not write ->
    let alone =
      t.cfg.exclusive_state
      && (Coreset.is_empty s
         || (Coreset.cardinal s = 1 && Coreset.mem req.core s))
    in
    let state = if alone then L1_cache.E else L1_cache.S in
    (* An Exclusive grant makes the requester the owner in the
       directory's eyes; a shared grant extends the sharer list. *)
    if alone then Llc.set_dir t.llc req.line (Llc.Owner req.core)
    else Llc.set_dir t.llc req.line (Llc.Sharers (Coreset.add req.core s));
    Llc.touch t.llc req.line;
    let inst = install t req ~state in
    (Types.Granted, llc_lat + extra + data t ~src:home ~dst:req.core + inst)
  | Llc.Sharers s ->
    (* Write (possibly an upgrade): every other sharer must go. First
       mark each one, arbitrating with the transactional ones in
       ascending core order; the lowest winner names the reject. *)
    let first_winner = ref (-1) in
    let c = ref (Coreset.next s 0) in
    while !c >= 0 do
      let core = !c in
      let mark =
        if core = req.core then unmarked
        else begin
          let f = L1_cache.flags_of t.l1s.(core) req.line in
          if f = L1_cache.absent then
            failwith "Protocol.dispatch: directory sharer has no copy";
          if not (L1_cache.in_tx f) then plain
          else
            let holder = t.client.Client.party_of core in
            match
              t.client.Client.resolve ~requester:(req.core, party)
                ~holder:(core, holder) ~line:req.line ~write:true
            with
            | Client.Reject_requester ->
              if !first_winner < 0 then first_winner := core;
              winner
            | Client.Abort_holder -> loser
        end
      in
      Bytes.set t.marks core mark;
      c := Coreset.next s (core + 1)
    done;
    (* Losers abort even when the request is ultimately rejected: each
       sharer arbitrates locally (Fig 4). *)
    iter_marked t s loser (kill t req party);
    (* Invalidate every non-winner copy still resident (aborts keep
       read lines valid), plain sharers first, then losers. Latency is
       the slowest invalidation round-trip, all in parallel. Under a
       limited-pointer directory whose pointers have overflowed, the
       home does not know the sharers and must broadcast to every
       core. *)
    let broadcast =
      match t.cfg.dir_pointers with
      | Some k -> Coreset.cardinal s > k
      | None -> false
    in
    let inv_rtt = ref 0 in
    let charge_rtt c =
      let rtt =
        ctrl t ~src:home ~dst:c + t.cfg.l1_hit_latency
        + ctrl t ~src:c ~dst:home
      in
      if rtt > !inv_rtt then inv_rtt := rtt
    in
    if broadcast then begin
      Stats.incr t.s_broadcast_invs;
      for c = 0 to t.cfg.cores - 1 do
        if c <> req.core then charge_rtt c
      done
    end
    else begin
      iter_marked t s plain charge_rtt;
      iter_marked t s loser charge_rtt
    end;
    let flush c = ignore (flush_l1_copy t ~core:c ~line:req.line ~extra:0) in
    iter_marked t s plain flush;
    iter_marked t s loser flush;
    if !first_winner >= 0 then begin
      let keep =
        ref
          (if L1_cache.resident t.l1s.(req.core) req.line then
             Coreset.singleton req.core
           else Coreset.empty)
      in
      iter_marked t s winner (fun c -> keep := Coreset.add c !keep);
      Llc.set_dir t.llc req.line (Llc.Sharers !keep);
      let outcome = reject t req t.s_sharer_rejects ~by:(Some !first_winner) in
      (outcome, llc_lat + extra + !inv_rtt + ctrl t ~src:home ~dst:req.core)
    end
    else begin
      Llc.set_dir t.llc req.line (Llc.Owner req.core);
      Llc.touch t.llc req.line;
      let was_resident = L1_cache.resident t.l1s.(req.core) req.line in
      let inst = install t req ~state:L1_cache.M in
      let transfer =
        if was_resident then ctrl t ~src:home ~dst:req.core
        else data t ~src:home ~dst:req.core
      in
      let slower = if !inv_rtt > transfer then !inv_rtt else transfer in
      (Types.Granted, llc_lat + extra + inst + slower)
    end

(* Serve a request at the head of its line queue. Returns the busy
   window (cycles until the home frees the line). *)
let process t req =
  match t.client.Client.context ~core:req.core ~epoch:req.epoch with
  | None ->
    (* The issuing transaction died after issue: drop without side
       effects. The continuation still fires (the core discards it by
       epoch). *)
    Stats.incr t.s_stale;
    req.k Types.Granted;
    0
  | Some party ->
    let write = req.write in
    let home = home_of t req.line in
    let extra = ensure_llc_resident t req.line in
    Llc.touch t.llc req.line;
    let would_be_exclusive =
      (not write)
      &&
      match Llc.dir_of t.llc req.line with
      | Llc.Owner _ -> false
      | Llc.Sharers s -> Coreset.is_empty s
    in
    let sig_verdict =
      t.client.Client.llc_check ~requester:req.core
        ~requester_mode:party.Types.mode ~line:req.line ~write
        ~would_be_exclusive
    in
    let outcome, lat =
      match sig_verdict with
      | Some Client.Reject_requester ->
        let outcome = reject t req t.s_sig_rejects ~by:None in
        let lat = t.cfg.llc_hit_latency + extra in
        (outcome, lat + ctrl t ~src:home ~dst:req.core)
      | Some Client.Abort_holder ->
        failwith "Protocol.process: llc_check returned Abort_holder"
      | None -> dispatch t req party ~home ~extra ~depth:0
    in
    finish t req outcome ~home ~latency:lat;
    lat

let rec release t line =
  let busy = t.busy.(shard_of t line) in
  let q = Lk_engine.Int_table.find busy line ~default:not_busy in
  if q == not_busy then failwith "Protocol.release: line not busy"
  else if q == no_waiters || Queue.is_empty q then
    Lk_engine.Int_table.remove busy line
  else begin
    let req = Queue.pop q in
    let lat = process t req in
    Sim.schedule t.sim ~delay:lat (fun () -> release t line)
  end

let arrive t req =
  let busy = t.busy.(shard_of t req.line) in
  let q = Lk_engine.Int_table.find busy req.line ~default:not_busy in
  if q == not_busy then begin
    Lk_engine.Int_table.replace busy req.line no_waiters;
    let lat = process t req in
    Sim.schedule t.sim ~delay:lat (fun () -> release t req.line)
  end
  else if q == no_waiters then begin
    let q = Queue.create () in
    Queue.push req q;
    Lk_engine.Int_table.replace busy req.line q
  end
  else Queue.push req q

let access t ~core ~line ~what ~epoch ~k =
  if core < 0 || core >= t.cfg.cores then
    invalid_arg "Protocol.access: core out of range";
  if line < 0 then invalid_arg "Protocol.access: negative line";
  let write = Types.is_write what in
  let l1c = t.l1s.(core) in
  let f = L1_cache.flags_of l1c line in
  if f <> L1_cache.absent && ((not write) || L1_cache.exclusive f) then begin
    Stats.incr t.s_l1_hits;
    L1_cache.touch l1c line;
    let party = t.client.Client.party_of core in
    if write then begin
      if in_tx_mode party && L1_cache.dirty f && not (L1_cache.tx_write f) then
        (* First speculative write to a non-speculatively dirty line:
           push the pre-transactional data to the LLC so an abort can
           recover it (eager-versioning bookkeeping). *)
        writeback t ~src:core line;
      L1_cache.set_state l1c line L1_cache.M
    end;
    if in_tx_mode party then L1_cache.mark_tx l1c line ~write;
    Sim.schedule t.sim ~delay:t.cfg.l1_hit_latency (fun () -> k Types.Granted)
  end
  else begin
    Stats.incr t.s_l1_misses;
    let home = home_of t line in
    let lat = t.cfg.l1_hit_latency + ctrl t ~src:core ~dst:home in
    let req = { core; line; write; epoch; k } in
    Sim.schedule t.sim ~delay:lat (fun () -> arrive t req)
  end

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
