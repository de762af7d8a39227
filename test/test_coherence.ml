(* Tests for addresses, the core-id sets, both cache levels, and the
   MESI protocol engine (including its HTM conflict hooks, driven by a
   scriptable test client). *)

module Sim = Lk_engine.Sim
module Topology = Lk_mesh.Topology
module Network = Lk_mesh.Network
module Types = Lk_coherence.Types
module Addr = Lk_coherence.Addr
module Coreset = Lk_coherence.Coreset
module L1 = Lk_coherence.L1_cache
module Llc = Lk_coherence.Llc
module Shard = Lk_coherence.Shard
module Client = Lk_coherence.Client
module Protocol = Lk_coherence.Protocol

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* --- Addr ------------------------------------------------------------ *)

let test_addr_line_mapping () =
  check_int "byte 0" 0 (Addr.line_of_byte 0);
  check_int "byte 63" 0 (Addr.line_of_byte 63);
  check_int "byte 64" 1 (Addr.line_of_byte 64);
  check_int "line base" 128 (Addr.byte_of_line 2)

let test_addr_home () =
  check_int "home wraps" 1 (Addr.home_of_line ~tiles:4 5);
  check_int "home of 0" 0 (Addr.home_of_line ~tiles:4 0)

let test_addr_range () =
  Alcotest.(check (list int)) "spans lines" [ 0; 1 ]
    (Addr.lines_of_range ~first_byte:60 ~bytes:8);
  Alcotest.(check (list int)) "single line" [ 2 ]
    (Addr.lines_of_range ~first_byte:130 ~bytes:4)

(* --- Coreset --------------------------------------------------------- *)

let test_coreset_basics () =
  let s = Coreset.of_list [ 3; 1; 5 ] in
  check_int "cardinal" 3 (Coreset.cardinal s);
  check_bool "mem 3" true (Coreset.mem 3 s);
  check_bool "mem 2" false (Coreset.mem 2 s);
  Alcotest.(check (list int)) "sorted elements" [ 1; 3; 5 ]
    (Coreset.elements s)

let test_coreset_add_remove () =
  let s = Coreset.add 4 Coreset.empty in
  check_bool "added" true (Coreset.mem 4 s);
  let s = Coreset.remove 4 s in
  check_bool "empty after remove" true (Coreset.is_empty s);
  check_bool "remove absent harmless" true
    (Coreset.is_empty (Coreset.remove 7 s))

let test_coreset_range_check () =
  check_bool "core 1023 accepted" true
    (Coreset.mem 1023 (Coreset.add 1023 Coreset.empty));
  Alcotest.check_raises "core 1024"
    (Invalid_argument "Coreset: core id 1024 out of range") (fun () ->
      ignore (Coreset.add 1024 Coreset.empty));
  Alcotest.check_raises "negative core"
    (Invalid_argument "Coreset: core id -1 out of range") (fun () ->
      ignore (Coreset.add (-1) Coreset.empty))

(* A party packs mode and priority into one int: both read back, a
   priority past [top_priority] is clamped, a negative one refused. *)
let test_party_packing () =
  List.iter
    (fun mode ->
      List.iter
        (fun priority ->
          let p = Types.party ~mode ~priority in
          check_bool "mode" true (Types.party_mode p = mode);
          check_int "priority" priority (Types.party_priority p))
        [ 0; 1; 0xFFFF; Types.top_priority ])
    [ Types.Htm_tx; Types.Lock_tx; Types.Non_tx ];
  check_int "clamped" Types.top_priority
    (Types.party_priority (Types.party ~mode:Types.Htm_tx ~priority:max_int));
  Alcotest.check_raises "negative priority"
    (Invalid_argument "Types.party: negative priority") (fun () ->
      ignore (Types.party ~mode:Types.Htm_tx ~priority:(-1)))

(* [next] against the model, from every start 0..1024, on the set and
   on its fold onto cores 0..63 (one or two words, the common case). *)
let prop_coreset_model =
  QCheck.Test.make ~name:"coreset behaves like a set of small ints"
    ~count:300
    QCheck.(list (int_bound 1023))
    (fun ops ->
      let s = Coreset.of_list ops in
      let model = List.sort_uniq compare ops in
      let rec least_from c = function
        | [] -> -1
        | m :: rest -> if m >= c then m else least_from c rest
      in
      let next_agrees ops =
        let s = Coreset.of_list ops and model = List.sort_uniq compare ops in
        let ok = ref true in
        for c = 0 to 1024 do
          if Coreset.next s c <> least_from c model then ok := false
        done;
        !ok
      in
      Coreset.elements s = model
      && Coreset.cardinal s = List.length model
      && next_agrees ops
      && next_agrees (List.map (fun c -> c land 63) ops))

(* --- L1 cache -------------------------------------------------------- *)

let small_l1 () = L1.create ~size_bytes:(4 * 64 * 2) ~ways:2
(* 4 sets, 2 ways *)

(* What allocating [line] needs, as the protocol decides it: already
   resident, a free way, or this victim's eviction. *)
let l1_room c line =
  if L1.resident c line then `Present
  else
    match L1.victim c line with
    | -1 -> `Free
    | v -> `Evict (Option.get (L1.lookup c v))

let test_l1_geometry () =
  let c = small_l1 () in
  check_int "sets" 4 (L1.sets c);
  check_int "ways" 2 (L1.ways c)

let test_l1_insert_lookup () =
  let c = small_l1 () in
  L1.insert c 5 L1.E;
  (match L1.lookup c 5 with
  | Some v ->
    check_bool "state E" true (v.L1.state = L1.E);
    check_bool "clean" false v.L1.dirty
  | None -> Alcotest.fail "line absent");
  check_bool "absent line" true (L1.lookup c 6 = None)

let test_l1_insert_m_is_dirty () =
  let c = small_l1 () in
  L1.insert c 1 L1.M;
  check_bool "dirty" true (Option.get (L1.lookup c 1)).L1.dirty

let test_l1_double_insert_rejected () =
  let c = small_l1 () in
  L1.insert c 5 L1.S;
  Alcotest.check_raises "double insert"
    (Invalid_argument "L1_cache.insert: line already resident") (fun () ->
      L1.insert c 5 L1.S)

let test_l1_room_and_eviction_preference () =
  let c = small_l1 () in
  (* set 0 holds lines 0, 4, 8, ... *)
  check_bool "free initially" true (l1_room c 0 = `Free);
  L1.insert c 0 L1.S;
  check_bool "present" true (l1_room c 0 = `Present);
  L1.insert c 4 L1.S;
  L1.touch c 0;
  (* LRU is now line 4 *)
  (match l1_room c 8 with
  | `Evict v -> check_int "evicts LRU" 4 v.L1.line
  | _ -> Alcotest.fail "expected eviction");
  (* make line 4 transactional: victim preference moves to line 0 *)
  L1.mark_tx c 4 ~write:false;
  (match l1_room c 8 with
  | `Evict v -> check_int "prefers non-tx victim" 0 v.L1.line
  | _ -> Alcotest.fail "expected eviction");
  (* both transactional: overflow situation, a tx line is the victim *)
  L1.mark_tx c 0 ~write:true;
  match l1_room c 8 with
  | `Evict v -> check_bool "tx victim" true (v.L1.tx_read || v.L1.tx_write)
  | _ -> Alcotest.fail "expected eviction"

let test_l1_remove () =
  let c = small_l1 () in
  L1.insert c 3 L1.M;
  let f = L1.remove c 3 in
  check_bool "was dirty" true (L1.dirty f);
  check_bool "gone" false (L1.resident c 3);
  check_int "occupancy" 0 (L1.occupancy c)

let test_l1_tx_tracking () =
  let c = small_l1 () in
  L1.insert c 1 L1.E;
  L1.insert c 2 L1.S;
  L1.insert c 3 L1.M;
  L1.mark_tx c 1 ~write:true;
  L1.mark_tx c 2 ~write:false;
  check_int "two tx lines" 2 (List.length (L1.tx_lines c))

let test_l1_clear_tx_commit () =
  let c = small_l1 () in
  L1.insert c 1 L1.M;
  L1.mark_tx c 1 ~write:true;
  let cleared =
    L1.clear_tx c ~drop_written:false (fun _ -> Alcotest.fail "dropped")
  in
  check_int "one cleared" 1 cleared;
  check_bool "still resident" true (L1.resident c 1);
  check_bool "bits gone" false (Option.get (L1.lookup c 1)).L1.tx_write

let test_l1_clear_tx_abort_drops_written () =
  let c = small_l1 () in
  L1.insert c 1 L1.M;
  L1.insert c 2 L1.S;
  L1.mark_tx c 1 ~write:true;
  L1.mark_tx c 2 ~write:false;
  let dropped = ref [] in
  check_int "two cleared" 2
    (L1.clear_tx c ~drop_written:true (fun l -> dropped := l :: !dropped));
  check (Alcotest.list Alcotest.int) "drop callback" [ 1 ] !dropped;
  check_bool "written line dropped" false (L1.resident c 1);
  check_bool "read line kept" true (L1.resident c 2);
  check_bool "read bits gone" false (Option.get (L1.lookup c 2)).L1.tx_read

let test_l1_bad_geometry_rejected () =
  Alcotest.check_raises "bad size"
    (Invalid_argument
       "L1_cache.create: size must be a multiple of ways * line size")
    (fun () -> ignore (L1.create ~size_bytes:100 ~ways:2))

let prop_l1_never_exceeds_capacity =
  QCheck.Test.make ~name:"l1 occupancy never exceeds capacity" ~count:100
    QCheck.(list (int_bound 63))
    (fun lines ->
      let c = small_l1 () in
      List.iter
        (fun line ->
          match l1_room c line with
          | `Present -> L1.touch c line
          | `Free -> L1.insert c line L1.S
          | `Evict v ->
            ignore (L1.remove c v.L1.line);
            L1.insert c line L1.S)
        lines;
      L1.occupancy c <= 8)

(* Model-based property: the L1 behaves like a reference set-associative
   cache with per-set LRU (victim choice restricted to non-tx lines,
   which this model has none of). *)
let prop_l1_matches_lru_model =
  QCheck.Test.make ~name:"l1 matches a reference LRU model" ~count:100
    QCheck.(list_of_size Gen.(1 -- 120) (int_bound 31))
    (fun lines ->
      let c = small_l1 () in
      (* model: per set, list of resident lines, most recent first *)
      let nsets = L1.sets c and ways = L1.ways c in
      let model = Array.make nsets [] in
      let touch_model line =
        let set = line mod nsets in
        let l = List.filter (fun x -> x <> line) model.(set) in
        let l = line :: l in
        model.(set) <-
          (if List.length l > ways then
             List.filteri (fun i _ -> i < ways) l
           else l)
      in
      List.iter
        (fun line ->
          (match l1_room c line with
          | `Present -> L1.touch c line
          | `Free -> L1.insert c line L1.S
          | `Evict v ->
            ignore (L1.remove c v.L1.line);
            L1.insert c line L1.S);
          touch_model line)
        lines;
      (* compare residency *)
      let ok = ref true in
      for set = 0 to nsets - 1 do
        List.iter
          (fun line -> if not (L1.resident c line) then ok := false)
          model.(set)
      done;
      let count = Array.fold_left (fun a l -> a + List.length l) 0 model in
      !ok && L1.occupancy c = count)

(* --- Shard ----------------------------------------------------------- *)

let test_shard_default_is_historical () =
  (* One shard per tile with the Mod hash is the historical
     [line mod tiles] home map, bit for bit. *)
  let plan = Shard.make ~count:8 ~tiles:8 ~hash:Shard.Mod in
  for line = 0 to 999 do
    check_int "of_line = line mod tiles" (line mod 8) (Shard.of_line plan line);
    check_int "home_tile = identity" (Shard.of_line plan line)
      (Shard.home_tile plan (Shard.of_line plan line))
  done

let test_shard_make_validates () =
  Alcotest.check_raises "zero shards"
    (Invalid_argument
       "Shard.make: shard count must be in [1, tiles]; got 0 shards for 4 tiles")
    (fun () -> ignore (Shard.make ~count:0 ~tiles:4 ~hash:Shard.Mod));
  Alcotest.check_raises "more shards than tiles"
    (Invalid_argument
       "Shard.make: shard count must be in [1, tiles]; got 5 shards for 4 tiles")
    (fun () -> ignore (Shard.make ~count:5 ~tiles:4 ~hash:Shard.Mod))

let prop_shard_in_range =
  QCheck.Test.make ~name:"shard of_line in range, home tiles distinct and ordered"
    ~count:200
    QCheck.(triple (int_range 1 16) (int_range 0 100_000) bool)
    (fun (count, line, mixed) ->
      let tiles = 16 in
      let hash = if mixed then Shard.Mix else Shard.Mod in
      let plan = Shard.make ~count ~tiles ~hash in
      let s = Shard.of_line plan line in
      let ok_shard = s >= 0 && s < count in
      let homes = List.init count (Shard.home_tile plan) in
      let ok_homes =
        List.for_all (fun t -> t >= 0 && t < tiles) homes
        && List.sort_uniq Int.compare homes = homes
      in
      ok_shard && ok_homes)

let test_shard_mix_spreads_strides () =
  (* A power-of-two stride hammers shard [0] under Mod; Mix must
     spread it across every shard. *)
  let plan = Shard.make ~count:8 ~tiles:8 ~hash:Shard.Mix in
  let hit = Array.make 8 0 in
  for i = 0 to 255 do
    let s = Shard.of_line plan (i * 8) in
    hit.(s) <- hit.(s) + 1
  done;
  Array.iteri
    (fun s n -> check_bool (Printf.sprintf "shard %d used" s) true (n > 0))
    hit

(* --- LLC ------------------------------------------------------------- *)

let small_llc () = Llc.create ~plan:(Shard.make ~count:4 ~tiles:4 ~hash:Shard.Mod)
    ~bank_size_bytes:(2 * 64 * 2) ~ways:2
(* 4 banks, 2 sets x 2 ways each *)

let test_llc_geometry () =
  let c = small_llc () in
  check_int "banks" 4 (Llc.banks c);
  check_int "sets per bank" 2 (Llc.sets_per_bank c)

let test_llc_insert_dir () =
  let c = small_llc () in
  Llc.insert c 9;
  (match Llc.dir_of c 9 with
  | Llc.Sharers s -> check_bool "no sharers" true (Coreset.is_empty s)
  | Llc.Owner _ -> Alcotest.fail "fresh line owned");
  Llc.set_dir c 9 (Llc.Owner 2);
  match Llc.dir_of c 9 with
  | Llc.Owner o -> check_int "owner" 2 o
  | _ -> Alcotest.fail "owner lost"

let test_llc_victim_prefers_quiet_lines () =
  let c = small_llc () in
  (* bank 0, set 0 holds lines 0, 16, 32 ... (line/4 mod 2 = 0) *)
  Llc.insert c 0;
  Llc.insert c 16;
  Llc.set_dir c 0 (Llc.Owner 1);
  Llc.touch c 0;
  Llc.touch c 16;
  (* line 16 has no L1 copies: preferred victim although 0 is LRU *)
  match Llc.room_for c 32 with
  | Llc.Evict v -> check_int "quiet victim" 16 v.Llc.line
  | _ -> Alcotest.fail "expected eviction"

let test_llc_evict () =
  let c = small_llc () in
  Llc.insert c 0;
  Llc.set_dirty c 0 true;
  let v = Llc.evict c 0 in
  check_bool "was dirty" true v.Llc.dirty;
  check_bool "gone" false (Llc.resident c 0)

(* --- Protocol: plain MESI -------------------------------------------- *)

(* A 4-core machine with tiny caches so evictions are easy to force. *)
let small_cfg =
  {
    Protocol.cores = 4;
    l1_size = 4 * 64 * 2;
    (* 4 sets x 2 ways *)
    l1_ways = 2;
    l1_hit_latency = 2;
    llc_size = 4 * (16 * 64 * 4);
    (* 16 sets x 4 ways per bank *)
    llc_ways = 4;
    llc_hit_latency = 12;
    mem_latency = 100;
      exclusive_state = true;
      dir_pointers = None;
      dir_shards = 0;
      dir_hash = Shard.Mod;
  }

let mk_machine ?(cfg = small_cfg) () =
  let sim = Sim.create () in
  let net = Network.create (Topology.create ~rows:2 ~cols:2) in
  let p = Protocol.create ~sim ~network:net cfg in
  (sim, p)

(* Issue an access and drain the simulation; returns (outcome, cycles
   the access took). *)
let run_access sim p ~core ~line ~what =
  let result = ref None in
  let t0 = Sim.now sim in
  Protocol.set_reply p (fun _ o -> result := Some (o, Sim.now sim - t0));
  Protocol.access p ~core ~line ~what ~epoch:0;
  Sim.run sim;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "access never completed"

let expect_granted sim p ~core ~line ~what =
  match run_access sim p ~core ~line ~what with
  | o, lat when o = Types.granted -> lat
  | _ -> Alcotest.fail "unexpected reject"

let l1_state p core line =
  match L1.lookup (Protocol.l1 p core) line with
  | Some v -> Some v.L1.state
  | None -> None

let test_proto_cold_read_is_exclusive () =
  let sim, p = mk_machine () in
  let lat = expect_granted sim p ~core:0 ~line:7 ~what:Types.Read in
  check_bool "E state" true (l1_state p 0 7 = Some L1.E);
  check_bool "paid memory latency" true (lat >= small_cfg.Protocol.mem_latency);
  (match Llc.dir_of (Protocol.llc p) 7 with
  | Llc.Owner o -> check_int "dir owner" 0 o
  | _ -> Alcotest.fail "dir should record exclusive owner");
  Protocol.check_invariants p

let test_proto_second_read_hits_l1 () =
  let sim, p = mk_machine () in
  ignore (expect_granted sim p ~core:0 ~line:7 ~what:Types.Read);
  let lat = expect_granted sim p ~core:0 ~line:7 ~what:Types.Read in
  check_int "l1 hit latency" small_cfg.Protocol.l1_hit_latency lat

let test_proto_read_sharing () =
  let sim, p = mk_machine () in
  ignore (expect_granted sim p ~core:0 ~line:7 ~what:Types.Read);
  ignore (expect_granted sim p ~core:1 ~line:7 ~what:Types.Read);
  check_bool "core0 S" true (l1_state p 0 7 = Some L1.S);
  check_bool "core1 S" true (l1_state p 1 7 = Some L1.S);
  (match Llc.dir_of (Protocol.llc p) 7 with
  | Llc.Sharers s ->
    Alcotest.(check (list int)) "both sharers" [ 0; 1 ] (Coreset.elements s)
  | Llc.Owner _ -> Alcotest.fail "should be shared");
  Protocol.check_invariants p

let test_proto_write_invalidates_sharers () =
  let sim, p = mk_machine () in
  ignore (expect_granted sim p ~core:0 ~line:7 ~what:Types.Read);
  ignore (expect_granted sim p ~core:1 ~line:7 ~what:Types.Read);
  ignore (expect_granted sim p ~core:2 ~line:7 ~what:Types.Write);
  check_bool "core0 invalid" true (l1_state p 0 7 = None);
  check_bool "core1 invalid" true (l1_state p 1 7 = None);
  check_bool "core2 M" true (l1_state p 2 7 = Some L1.M);
  Protocol.check_invariants p

let test_proto_write_then_read_downgrades () =
  let sim, p = mk_machine () in
  ignore (expect_granted sim p ~core:0 ~line:7 ~what:Types.Write);
  ignore (expect_granted sim p ~core:1 ~line:7 ~what:Types.Read);
  check_bool "core0 S" true (l1_state p 0 7 = Some L1.S);
  check_bool "core1 S" true (l1_state p 1 7 = Some L1.S);
  check_bool "llc dirty" true (Option.get (Llc.lookup (Protocol.llc p) 7)).Llc.dirty;
  Protocol.check_invariants p

let test_proto_upgrade () =
  let sim, p = mk_machine () in
  ignore (expect_granted sim p ~core:0 ~line:7 ~what:Types.Read);
  ignore (expect_granted sim p ~core:1 ~line:7 ~what:Types.Read);
  ignore (expect_granted sim p ~core:0 ~line:7 ~what:Types.Write);
  check_bool "core0 M" true (l1_state p 0 7 = Some L1.M);
  check_bool "core1 invalid" true (l1_state p 1 7 = None);
  Protocol.check_invariants p

let test_proto_silent_write_upgrade_from_e () =
  let sim, p = mk_machine () in
  ignore (expect_granted sim p ~core:0 ~line:7 ~what:Types.Read);
  (* E -> M without touching the directory *)
  let lat = expect_granted sim p ~core:0 ~line:7 ~what:Types.Write in
  check_int "hit latency" small_cfg.Protocol.l1_hit_latency lat;
  check_bool "M" true (l1_state p 0 7 = Some L1.M);
  Protocol.check_invariants p

let test_proto_l1_eviction_writeback () =
  let sim, p = mk_machine () in
  (* Lines 0, 16, 32 map to L1 set 0 (16 lines per L1 "stride": 4 sets,
     so stride 4 — lines 0,4,8 share set 0). Fill both ways then force
     an eviction. *)
  ignore (expect_granted sim p ~core:0 ~line:0 ~what:Types.Write);
  ignore (expect_granted sim p ~core:0 ~line:4 ~what:Types.Read);
  ignore (expect_granted sim p ~core:0 ~line:8 ~what:Types.Read);
  check_bool "dirty line evicted" true (l1_state p 0 0 = None);
  check_bool "new line resident" true (l1_state p 0 8 <> None);
  (* after writeback the LLC holds the only copy and stays dirty *)
  check_bool "llc dirty after wb" true
    (Option.get (Llc.lookup (Protocol.llc p) 0)).Llc.dirty;
  Protocol.check_invariants p

let test_proto_rmw_behaves_like_write () =
  let sim, p = mk_machine () in
  ignore (expect_granted sim p ~core:0 ~line:3 ~what:Types.Read);
  ignore (expect_granted sim p ~core:1 ~line:3 ~what:Types.Rmw);
  check_bool "core1 M" true (l1_state p 1 3 = Some L1.M);
  check_bool "core0 invalid" true (l1_state p 0 3 = None);
  Protocol.check_invariants p

let prop_proto_random_plain_traffic =
  QCheck.Test.make
    ~name:"random non-tx traffic preserves SWMR and inclusivity" ~count:30
    QCheck.(
      pair
        (pair bool (option (int_range 1 3)))
        (list_of_size Gen.(5 -- 60) (triple (int_bound 3) (int_bound 30) bool)))
    (fun ((exclusive_state, dir_pointers), ops) ->
      (* the invariants must hold under every protocol-knob combination *)
      let cfg = { small_cfg with Protocol.exclusive_state; dir_pointers } in
      let sim, p = mk_machine ~cfg () in
      List.iter
        (fun (core, line, write) ->
          let what = if write then Types.Write else Types.Read in
          ignore (run_access sim p ~core ~line ~what);
          Protocol.check_invariants p)
        ops;
      true)

(* --- Protocol: transactional hooks ----------------------------------- *)

(* A scriptable client: per-core modes and priorities, recovery on/off,
   abort log. *)
type script = {
  mutable modes : Types.party array;
  mutable recovery : bool;
  mutable aborted : (int * int) list;  (* victim, line *)
  mutable rejected : (int * int) list;  (* requester, by *)
  mutable overflow_directive : Client.eviction_directive;
  proto : Protocol.t;
}

let make_script p =
  let s =
    {
      modes = Array.make 4 Types.non_tx_party;
      recovery = false;
      aborted = [];
      rejected = [];
      overflow_directive = Client.Abort_tx 0;
      proto = p;
    }
  in
  let client =
    {
      Client.context = (fun ~core ~epoch:_ -> s.modes.(core));
      party_of = (fun core -> s.modes.(core));
      resolve =
        (fun ~requester:_ ~requester_party:rp ~holder:_ ~holder_party:hp ->
          let r_pri = Types.party_priority rp
          and h_pri = Types.party_priority hp in
          if Types.party_mode hp = Types.Lock_tx then Client.Reject_requester
          else if not s.recovery then Client.Abort_holder
          else if h_pri > r_pri then Client.Reject_requester
          else Client.Abort_holder);
      abort =
        (fun ~victim ~aggressor:_ ~aggressor_mode:_ ~line ->
          s.aborted <- (victim, line) :: s.aborted;
          s.modes.(victim) <- Types.non_tx_party;
          ignore (Protocol.abort_flush s.proto victim));
      on_tx_eviction =
        (fun ~core ~view:_ ->
          (match s.overflow_directive with
          | Client.Abort_tx _ ->
            s.modes.(core) <- Types.non_tx_party;
            ignore (Protocol.abort_flush s.proto core)
          | Client.Spill _ -> ());
          s.overflow_directive);
      llc_check =
        (fun ~requester:_ ~requester_mode:_ ~line:_ ~write:_
             ~would_be_exclusive:_ -> None);
      on_reject =
        (fun ~requester ~by -> s.rejected <- (requester, by) :: s.rejected);
      tx_age = (fun _ -> 0);
    }
  in
  Protocol.set_client p client;
  s

let htm priority = Types.party ~mode:Types.Htm_tx ~priority

let test_proto_tx_marks_bits () =
  let sim, p = mk_machine () in
  let s = make_script p in
  s.modes.(0) <- htm 1;
  ignore (expect_granted sim p ~core:0 ~line:5 ~what:Types.Read);
  ignore (expect_granted sim p ~core:0 ~line:6 ~what:Types.Write);
  let v5 = Option.get (L1.lookup (Protocol.l1 p 0) 5) in
  let v6 = Option.get (L1.lookup (Protocol.l1 p 0) 6) in
  check_bool "read bit" true v5.L1.tx_read;
  check_bool "write bit" true v6.L1.tx_write

let test_proto_requester_win_aborts_holder () =
  let sim, p = mk_machine () in
  let s = make_script p in
  s.modes.(0) <- htm 1;
  ignore (expect_granted sim p ~core:0 ~line:5 ~what:Types.Write);
  (* core 1, non-tx, reads the speculative line: requester-win aborts 0 *)
  ignore (expect_granted sim p ~core:1 ~line:5 ~what:Types.Read);
  check_bool "core0 aborted" true (List.mem (0, 5) s.aborted);
  (* speculative data was dropped; requester got the pre-tx copy
     exclusively *)
  check_bool "core0 lost line" true (l1_state p 0 5 = None);
  check_bool "core1 has line" true (l1_state p 1 5 <> None);
  Protocol.check_invariants p

let test_proto_read_read_no_conflict () =
  let sim, p = mk_machine () in
  let s = make_script p in
  s.modes.(0) <- htm 1;
  s.modes.(1) <- htm 1;
  ignore (expect_granted sim p ~core:0 ~line:5 ~what:Types.Read);
  ignore (expect_granted sim p ~core:1 ~line:5 ~what:Types.Read);
  check_bool "no aborts" true (s.aborted = []);
  Protocol.check_invariants p

let test_proto_recovery_rejects_lower_priority () =
  let sim, p = mk_machine () in
  let s = make_script p in
  s.recovery <- true;
  s.modes.(0) <- htm 10;
  ignore (expect_granted sim p ~core:0 ~line:5 ~what:Types.Write);
  s.modes.(1) <- htm 1;
  (match run_access sim p ~core:1 ~line:5 ~what:Types.Read with
  | 0, _ -> ()
  | o, _ when o = Types.granted ->
    Alcotest.fail "low-priority requester not rejected"
  | _ -> Alcotest.fail "wrong rejector");
  check_bool "no aborts" true (s.aborted = []);
  check_bool "holder keeps line" true (l1_state p 0 5 = Some L1.M);
  check_bool "on_reject fired" true (List.mem (1, 0) s.rejected);
  Protocol.check_invariants p

let test_proto_recovery_aborts_higher_priority_requester () =
  let sim, p = mk_machine () in
  let s = make_script p in
  s.recovery <- true;
  s.modes.(0) <- htm 1;
  ignore (expect_granted sim p ~core:0 ~line:5 ~what:Types.Write);
  s.modes.(1) <- htm 10;
  ignore (expect_granted sim p ~core:1 ~line:5 ~what:Types.Read);
  check_bool "holder aborted" true (List.mem (0, 5) s.aborted);
  Protocol.check_invariants p

let test_proto_sharer_conflict_mixed_verdicts () =
  let sim, p = mk_machine () in
  let s = make_script p in
  s.recovery <- true;
  (* cores 0 (high) and 1 (low) both read line 5 transactionally *)
  s.modes.(0) <- htm 10;
  s.modes.(1) <- htm 1;
  ignore (expect_granted sim p ~core:0 ~line:5 ~what:Types.Read);
  ignore (expect_granted sim p ~core:1 ~line:5 ~what:Types.Read);
  (* core 2, priority between them, writes: 0 rejects, 1 aborts *)
  s.modes.(2) <- htm 5;
  (match run_access sim p ~core:2 ~line:5 ~what:Types.Write with
  | 0, _ -> ()
  | _ -> Alcotest.fail "expected rejection by core 0");
  check_bool "core1 aborted" true (List.mem (1, 5) s.aborted);
  check_bool "winner keeps copy" true (l1_state p 0 5 = Some L1.S);
  check_bool "loser lost copy" true (l1_state p 1 5 = None);
  Protocol.check_invariants p

let test_proto_lock_holder_never_aborted () =
  let sim, p = mk_machine () in
  let s = make_script p in
  s.modes.(0) <- Types.party ~mode:Types.Lock_tx ~priority:max_int;
  ignore (expect_granted sim p ~core:0 ~line:5 ~what:Types.Write);
  s.modes.(1) <- htm max_int;
  (match run_access sim p ~core:1 ~line:5 ~what:Types.Read with
  | o, _ when o = Types.granted ->
    Alcotest.fail "lock transaction was not protected"
  | _ -> ());
  check_bool "no aborts" true (s.aborted = []);
  Protocol.check_invariants p

let test_proto_overflow_abort_on_tx_eviction () =
  let sim, p = mk_machine () in
  let s = make_script p in
  s.modes.(0) <- htm 1;
  (* fill L1 set 0 (lines 0, 4) transactionally, then touch line 8 *)
  ignore (expect_granted sim p ~core:0 ~line:0 ~what:Types.Write);
  ignore (expect_granted sim p ~core:0 ~line:4 ~what:Types.Write);
  ignore (expect_granted sim p ~core:0 ~line:8 ~what:Types.Write);
  (* both tx lines were speculative; the overflow aborted the tx *)
  check_bool "tx aborted via eviction hook" true
    (Types.party_mode s.modes.(0) = Types.Non_tx);
  check_bool "speculative lines dropped" true
    (l1_state p 0 0 = None && l1_state p 0 4 = None);
  check_bool "new line resident" true (l1_state p 0 8 <> None);
  Protocol.check_invariants p

let test_proto_stale_request_dropped () =
  let sim, p = mk_machine () in
  let _s = make_script p in
  (* a client whose context is always stale for epoch 99 *)
  let outcome = ref None in
  Protocol.set_reply p (fun _ o -> outcome := Some o);
  Protocol.access p ~core:0 ~line:5 ~what:Types.Read ~epoch:99;
  (* make_script's context ignores epoch, so simulate staleness via a
     dedicated client *)
  Sim.run sim;
  check_bool "completed" true (!outcome <> None)

let test_proto_commit_flush_keeps_lines () =
  let sim, p = mk_machine () in
  let s = make_script p in
  s.modes.(0) <- htm 1;
  ignore (expect_granted sim p ~core:0 ~line:5 ~what:Types.Write);
  ignore (expect_granted sim p ~core:0 ~line:6 ~what:Types.Read);
  let n = Protocol.commit_flush p 0 in
  check_int "two tx lines" 2 n;
  check_bool "written line kept" true (l1_state p 0 5 = Some L1.M);
  Protocol.check_invariants p

let test_proto_abort_flush_drops_written () =
  let sim, p = mk_machine () in
  let s = make_script p in
  s.modes.(0) <- htm 1;
  ignore (expect_granted sim p ~core:0 ~line:5 ~what:Types.Write);
  ignore (expect_granted sim p ~core:0 ~line:6 ~what:Types.Read);
  let n = Protocol.abort_flush p 0 in
  check_int "two tx lines" 2 n;
  check_bool "written dropped" true (l1_state p 0 5 = None);
  check_bool "read kept" true (l1_state p 0 6 <> None);
  (* directory no longer names core 0 owner of line 5 *)
  (match Llc.dir_of (Protocol.llc p) 5 with
  | Llc.Sharers se -> check_bool "unowned" true (Coreset.is_empty se)
  | Llc.Owner _ -> Alcotest.fail "stale owner");
  Protocol.check_invariants p

let test_proto_flush_core () =
  let sim, p = mk_machine () in
  ignore (expect_granted sim p ~core:0 ~line:1 ~what:Types.Write);
  ignore (expect_granted sim p ~core:0 ~line:2 ~what:Types.Read);
  ignore (expect_granted sim p ~core:1 ~line:2 ~what:Types.Read);
  let flushed = Protocol.flush_core p 0 in
  check_int "two lines flushed" 2 flushed;
  check_bool "all gone" true
    (l1_state p 0 1 = None && l1_state p 0 2 = None);
  (* the shared line survives at core 1 and the directory is exact *)
  check_bool "core1 keeps its copy" true (l1_state p 1 2 <> None);
  (* dirty data reached the LLC *)
  check_bool "llc dirty after flush" true
    (Option.get (Llc.lookup (Protocol.llc p) 1)).Llc.dirty;
  Protocol.check_invariants p

let test_proto_stats_counters () =
  let sim, p = mk_machine () in
  ignore (expect_granted sim p ~core:0 ~line:1 ~what:Types.Read);
  ignore (expect_granted sim p ~core:0 ~line:1 ~what:Types.Read);
  ignore (expect_granted sim p ~core:1 ~line:1 ~what:Types.Write);
  let stats = Lk_engine.Stats.counters (Protocol.stats p) in
  let v name = List.assoc name stats in
  check_int "one l1 hit" 1 (v "l1_hits");
  check_int "two misses" 2 (v "l1_misses");
  check_bool "llc misses counted" true (v "llc_misses" >= 1);
  check_bool "invalidation counted" true (v "invalidations" >= 1)

let test_proto_default_config_matches_table1 () =
  let cfg = Protocol.default_config in
  check_int "32 cores" 32 cfg.Protocol.cores;
  check_int "32KB L1" (32 * 1024) cfg.Protocol.l1_size;
  check_int "8MB LLC" (8 * 1024 * 1024) cfg.Protocol.llc_size;
  check_int "2-cycle L1" 2 cfg.Protocol.l1_hit_latency;
  check_int "12-cycle LLC" 12 cfg.Protocol.llc_hit_latency;
  check_int "100-cycle memory" 100 cfg.Protocol.mem_latency

let test_proto_latency_ordering () =
  (* l1 hit < llc-resident miss < memory miss *)
  let sim, p = mk_machine () in
  let cold = expect_granted sim p ~core:0 ~line:9 ~what:Types.Read in
  let hit = expect_granted sim p ~core:0 ~line:9 ~what:Types.Read in
  (* force line 9 out of core 0's L1 but keep it in the LLC *)
  ignore (expect_granted sim p ~core:0 ~line:13 ~what:Types.Read);
  ignore (expect_granted sim p ~core:0 ~line:17 ~what:Types.Read);
  check_bool "line 9 evicted" true (l1_state p 0 9 = None);
  let warm = expect_granted sim p ~core:0 ~line:9 ~what:Types.Read in
  check_bool "hit < warm" true (hit < warm);
  check_bool "warm < cold" true (warm < cold)

let test_msi_mode_no_exclusive () =
  let cfg = { small_cfg with Protocol.exclusive_state = false } in
  let sim, p = mk_machine ~cfg () in
  ignore (expect_granted sim p ~core:0 ~line:7 ~what:Types.Read);
  check_bool "sole reader gets S under MSI" true (l1_state p 0 7 = Some L1.S);
  (* the write is now a directory upgrade, not a silent E->M *)
  let lat = expect_granted sim p ~core:0 ~line:7 ~what:Types.Write in
  check_bool "upgrade pays the directory" true
    (lat > small_cfg.Protocol.l1_hit_latency);
  check_bool "M after upgrade" true (l1_state p 0 7 = Some L1.M);
  Protocol.check_invariants p

let test_limited_pointer_broadcast () =
  let cfg = { small_cfg with Protocol.dir_pointers = Some 1 } in
  let sim, p = mk_machine ~cfg () in
  (* three sharers > 1 pointer: the invalidating write must broadcast *)
  ignore (expect_granted sim p ~core:0 ~line:7 ~what:Types.Read);
  ignore (expect_granted sim p ~core:1 ~line:7 ~what:Types.Read);
  ignore (expect_granted sim p ~core:2 ~line:7 ~what:Types.Read);
  ignore (expect_granted sim p ~core:3 ~line:7 ~what:Types.Write);
  let stats = Lk_engine.Stats.counters (Protocol.stats p) in
  check_bool "broadcast counted" true
    (List.assoc "broadcast_invalidations" stats > 0);
  check_bool "sharers invalidated" true
    (l1_state p 0 7 = None && l1_state p 1 7 = None && l1_state p 2 7 = None);
  Protocol.check_invariants p

let test_l1_iter_and_occupancy () =
  let c = small_l1 () in
  L1.insert c 0 L1.S;
  L1.insert c 5 L1.E;
  let seen = ref [] in
  L1.iter c (fun v -> seen := v.L1.line :: !seen);
  Alcotest.(check (list int)) "iter covers" [ 0; 5 ] (List.sort compare !seen);
  check_int "occupancy" 2 (L1.occupancy c)

let test_llc_iter () =
  let c = small_llc () in
  Llc.insert c 3;
  Llc.insert c 9;
  let seen = ref 0 in
  Llc.iter c (fun _ -> incr seen);
  check_int "iter covers" 2 !seen;
  check_int "occupancy" 2 (Llc.occupancy c)

(* --- Invariant checker: one corruption per failure message ---------- *)

(* Each case builds a consistent machine through real accesses, breaks
   one invariant by hand through [Protocol.l1]/[Protocol.llc], and
   expects [check_invariants] to name exactly that violation. *)

let read_by p sim cores line =
  List.iter
    (fun core -> ignore (expect_granted sim p ~core ~line ~what:Types.Read))
    cores

(* The one corruption the public API cannot make: a line filed in a
   bank its shard hash does not name (the LLC places every insert by
   the same plan the checker uses). The test swaps the LLC's plan for
   the duration of one insert by rewriting the record field that holds
   it — found by physical equality, so it does not depend on the
   record's layout. *)
let with_llc_plan llc plan f =
  let r = Obj.repr llc in
  let current = Obj.repr (Llc.plan llc) in
  let rec field i =
    if i >= Obj.size r then Alcotest.fail "Llc.t holds no plan field"
    else if Obj.field r i == current then i
    else field (i + 1)
  in
  let i = field 0 in
  Obj.set_field r i (Obj.repr plan);
  Fun.protect ~finally:(fun () -> Obj.set_field r i current) f

let invariant_cases =
  [
    ( "owner in S",
      "line 7: directory owner 0 holds it in S",
      fun sim p ->
        read_by p sim [ 0 ] 7;
        L1.set_state (Protocol.l1 p 0) 7 L1.S );
    ( "owner without copy",
      "line 7: directory owner 0 has no copy",
      fun sim p ->
        read_by p sim [ 0 ] 7;
        ignore (L1.remove (Protocol.l1 p 0) 7) );
    ( "owned and shared",
      "line 7: owned by 0 but also resident at 2",
      fun sim p ->
        read_by p sim [ 0 ] 7;
        L1.insert (Protocol.l1 p 2) 7 L1.S );
    ( "listed sharer without copy",
      "line 7: directory lists 1 but no copy",
      fun sim p ->
        read_by p sim [ 0; 1 ] 7;
        ignore (L1.remove (Protocol.l1 p 1) 7) );
    ( "copy missing from directory",
      "line 7: resident at 1 but not in directory",
      fun sim p ->
        read_by p sim [ 0; 1 ] 7;
        Llc.set_dir (Protocol.llc p) 7 (Llc.Sharers (Coreset.singleton 0)) );
    ( "sharer in M",
      "line 7: sharer 1 holds it in M/E",
      fun sim p ->
        read_by p sim [ 0; 1 ] 7;
        L1.set_state (Protocol.l1 p 1) 7 L1.M );
    ( "L1 copy not in LLC",
      "line 7: resident in L1 3 but not in LLC",
      fun sim p ->
        read_by p sim [ 3 ] 7;
        ignore (Llc.evict (Protocol.llc p) 7) );
    ( "line in wrong bank",
      "line 9: resident in bank 3 but hashes to shard 1",
      fun _sim p ->
        let llc = Protocol.llc p in
        let mix = Shard.make ~count:4 ~tiles:4 ~hash:Shard.Mix in
        (* Line 9 is shard 1 under [Mod] but bank 3 under [Mix]. *)
        check_int "mix bank of 9" 3 (Shard.of_line mix 9);
        with_llc_plan llc mix (fun () -> Llc.insert llc 9) );
  ]

let test_violation (name, msg, corrupt) =
  let sim, p = mk_machine () in
  corrupt sim p;
  Alcotest.check_raises name (Failure msg) (fun () ->
      Protocol.check_invariants p)

(* --- Golden differential traces -------------------------------------- *)

(* A seeded random op sequence over each cache level, with every
   returned room, view, list and error message folded into one digest.
   The literals were recorded from the record-per-slot implementation,
   so they pin victim order, LRU ties, tx bookkeeping and the
   [Invalid_argument] texts of any later storage layout. *)

module Rng = Lk_engine.Rng

let l1_state_char = function L1.M -> 'M' | L1.E -> 'E' | L1.S -> 'S'

let add_l1_view b (v : L1.view) =
  Printf.bprintf b "(%d %c %b %b %b)" v.L1.line (l1_state_char v.L1.state)
    v.L1.dirty v.L1.tx_read v.L1.tx_write

let add_llc_view b (v : Llc.view) =
  (match v.Llc.dir with
  | Llc.Owner o -> Printf.bprintf b "(%d O%d" v.Llc.line o
  | Llc.Sharers s ->
    Printf.bprintf b "(%d S[%s]" v.Llc.line
      (String.concat "," (List.map string_of_int (Coreset.elements s))));
  Printf.bprintf b " %b)" v.Llc.dirty

(* [L1.remove] and [L1.clear_tx], reported as the views they change:
   the removed line's last view (or [remove]'s refusal), and the
   pre-clear views of every tx line, checked against the count and
   the dropped lines [clear_tx] reports. *)
let check_view_flags (v : L1.view) f =
  check (Alcotest.list Alcotest.bool) "flags"
    [
      v.L1.state <> L1.S; v.L1.dirty; v.L1.tx_write; v.L1.tx_read || v.L1.tx_write;
    ]
    [ L1.exclusive f; L1.dirty f; L1.tx_write f; L1.in_tx f ]

(* [L1.flags_of] agrees with [L1.lookup]. *)
let check_flags c line =
  match L1.lookup c line with
  | None -> check_int "absent" L1.absent (L1.flags_of c line)
  | Some v -> check_view_flags v (L1.flags_of c line)

let remove_view c line =
  let v = L1.lookup c line in
  let f = L1.remove c line in
  let v = Option.get v in
  check_view_flags v f;
  v

let clear_tx_views c ~drop_written =
  let views = L1.tx_lines c in
  let dropped = ref [] in
  let n = L1.clear_tx c ~drop_written (fun l -> dropped := l :: !dropped) in
  check_int "clear_tx count" (List.length views) n;
  check (Alcotest.list Alcotest.int) "clear_tx drops"
    (List.filter_map
       (fun v -> if drop_written && v.L1.tx_write then Some v.L1.line else None)
       views)
    (List.rev !dropped);
  views

(* Run [f], recording either its output or the [Invalid_argument]
   message it raised. *)
let guarded b f =
  try f () with Invalid_argument msg -> Printf.bprintf b "!%s;" msg

let l1_trace_digest ~seed =
  let rng = Rng.create seed in
  let c = L1.create ~size_bytes:(8 * 64 * 4) ~ways:4 in
  let b = Buffer.create 65536 in
  let state () = match Rng.int rng 3 with 0 -> L1.M | 1 -> L1.E | _ -> L1.S in
  for step = 1 to 4000 do
    let line = Rng.int rng 96 in
    Printf.bprintf b "%d:" step;
    (match Rng.int rng 10 with
    | 0 | 1 | 2 -> (
      match l1_room c line with
      | `Present -> Buffer.add_string b "P;"
      | `Free ->
        Buffer.add_string b "F;";
        L1.insert c line (state ())
      | `Evict v ->
        Buffer.add_string b "E";
        add_l1_view b v;
        add_l1_view b (remove_view c v.L1.line);
        L1.insert c line (state ()))
    | 3 -> guarded b (fun () -> L1.insert c line (state ()))
    | 4 -> guarded b (fun () -> add_l1_view b (remove_view c line))
    | 5 -> L1.touch c line
    | 6 ->
      guarded b (fun () -> L1.mark_tx c line ~write:(Rng.bool rng))
    | 7 -> guarded b (fun () -> L1.set_state c line (state ()))
    | 8 ->
      if Rng.int rng 8 = 0 then begin
        Buffer.add_string b "C";
        List.iter (add_l1_view b)
          (clear_tx_views c ~drop_written:(Rng.bool rng))
      end
      else
        guarded b (fun () ->
            if Rng.bool rng then L1.mark_dirty c line
            else L1.clear_dirty c line)
    | _ -> (
      check_flags c line;
      match L1.lookup c line with
      | None -> Buffer.add_string b "-;"
      | Some v -> add_l1_view b v));
    if step mod 250 = 0 then begin
      Printf.bprintf b "|%d %d|" (L1.occupancy c) (L1.tx_count c);
      List.iter (add_l1_view b) (L1.tx_lines c);
      L1.iter c (add_l1_view b)
    end
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let llc_trace_digest ~seed =
  let rng = Rng.create seed in
  let banks = 4 in
  let c =
    Llc.create ~plan:(Shard.make ~count:banks ~tiles:banks ~hash:Shard.Mod)
      ~bank_size_bytes:(4 * 64 * 4) ~ways:4
  in
  let b = Buffer.create 65536 in
  let dir () =
    match Rng.int rng 3 with
    | 0 -> Llc.Owner (Rng.int rng 8)
    | 1 -> Llc.Sharers Coreset.empty
    | _ -> Llc.Sharers (Coreset.of_list [ Rng.int rng 8; Rng.int rng 8 ])
  in
  for step = 1 to 4000 do
    let line = Rng.int rng 160 in
    Printf.bprintf b "%d:" step;
    (match Rng.int rng 8 with
    | 0 | 1 | 2 -> (
      match Llc.room_for c line with
      | Llc.Present -> Buffer.add_string b "P;"
      | Llc.Free ->
        Buffer.add_string b "F;";
        Llc.insert c line
      | Llc.Evict v ->
        Buffer.add_string b "E";
        add_llc_view b v;
        add_llc_view b (Llc.evict c v.Llc.line);
        Llc.insert c line)
    | 3 -> guarded b (fun () -> Llc.insert c line)
    | 4 -> guarded b (fun () -> add_llc_view b (Llc.evict c line))
    | 5 -> guarded b (fun () -> Llc.set_dir c line (dir ()))
    | 6 -> guarded b (fun () -> Llc.set_dirty c line (Rng.bool rng))
    | _ -> (
      Llc.touch c line;
      match Llc.lookup c line with
      | None -> Buffer.add_string b "-;"
      | Some v -> add_llc_view b v));
    if step mod 250 = 0 then begin
      (* The occupancy counter must agree with a recount. *)
      let recount = ref 0 in
      Llc.iter c (fun _ -> incr recount);
      check_int (Printf.sprintf "occupancy at step %d" step) !recount
        (Llc.occupancy c);
      Printf.bprintf b "|%d|" (Llc.occupancy c);
      for s = 0 to banks - 1 do
        Printf.bprintf b "#%d" s;
        Llc.iter_shard c s (add_llc_view b)
      done
    end
  done;
  guarded b (fun () -> Llc.iter_shard c banks (add_llc_view b));
  guarded b (fun () -> ignore (Llc.dir_of c 1_000_003));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A 16-way LLC touched sparsely: a dozen sets per run, each drawing
   from its own pool of 1 to 40 lines, so sets come to hold 1, 2, 3-4,
   5-8 and 9-16 lines, the deep ones fill and evict, and explicit
   evictions leave holes below a set's highest occupied way. Every
   step's room, view and error text is folded in, with periodic
   [iter] and [iter_shard] dumps that pin set-then-way order. *)
let llc_sparse_trace_digest ~seed =
  let rng = Rng.create seed in
  let banks = 4 and sets = 64 and ways = 16 in
  let c =
    Llc.create ~plan:(Shard.make ~count:banks ~tiles:banks ~hash:Shard.Mod)
      ~bank_size_bytes:(sets * 64 * ways) ~ways
  in
  let b = Buffer.create 65536 in
  (* (bank, set within the bank, distinct lines drawn there) *)
  let pools =
    [|
      (0, 0, 1); (1, 5, 2); (2, 9, 3); (3, 63, 4); (0, 17, 5); (1, 33, 8);
      (2, 40, 9); (3, 2, 16); (0, 50, 17); (1, 11, 24); (2, 61, 40);
      (3, 30, 2);
    |]
  in
  let draw () =
    let bank, set, depth = pools.(Rng.int rng (Array.length pools)) in
    bank + (banks * set) + (banks * sets * Rng.int rng depth)
  in
  let dir () =
    match Rng.int rng 3 with
    | 0 -> Llc.Owner (Rng.int rng 8)
    | 1 -> Llc.Sharers Coreset.empty
    | _ -> Llc.Sharers (Coreset.of_list [ Rng.int rng 8; Rng.int rng 8 ])
  in
  let dump () =
    let recount = ref 0 in
    Llc.iter c (fun v ->
        incr recount;
        add_llc_view b v);
    check_int "occupancy" !recount (Llc.occupancy c);
    Printf.bprintf b "|%d|" (Llc.occupancy c);
    for s = 0 to banks - 1 do
      Printf.bprintf b "#%d" s;
      Llc.iter_shard c s (add_llc_view b)
    done
  in
  dump ();
  for step = 1 to 3000 do
    let line = draw () in
    Printf.bprintf b "%d:" step;
    (match Rng.int rng 9 with
    | 0 | 1 | 2 -> (
      match Llc.room_for c line with
      | Llc.Present -> Buffer.add_string b "P;"
      | Llc.Free ->
        Buffer.add_string b "F;";
        Llc.insert c line
      | Llc.Evict v ->
        Buffer.add_string b "E";
        add_llc_view b v;
        add_llc_view b (Llc.evict c v.Llc.line);
        Llc.insert c line)
    | 3 -> guarded b (fun () -> Llc.insert c line)
    | 4 | 5 -> guarded b (fun () -> add_llc_view b (Llc.evict c line))
    | 6 -> guarded b (fun () -> Llc.set_dir c line (dir ()))
    | 7 -> guarded b (fun () -> Llc.set_dirty c line (Rng.bool rng))
    | _ -> (
      Llc.touch c line;
      match Llc.lookup c line with
      | None -> Buffer.add_string b "-;"
      | Some v -> add_llc_view b v));
    if step mod 100 = 0 then dump ()
  done;
  (* Drain in iteration order, then refill from scratch. *)
  let resident = ref [] in
  Llc.iter c (fun v -> resident := v.Llc.line :: !resident);
  List.iter (fun l -> add_llc_view b (Llc.evict c l)) (List.rev !resident);
  dump ();
  for _ = 1 to 200 do
    let line = draw () in
    match Llc.room_for c line with
    | Llc.Free -> Llc.insert c line
    | Llc.Present | Llc.Evict _ -> Buffer.add_string b "x;"
  done;
  dump ();
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every read-only operation, and every mutator that must refuse, on an
   L1 that has never held a line; then the first inserts. *)
let l1_fresh_trace_digest () =
  let c = L1.create ~size_bytes:(64 * 64 * 8) ~ways:8 in
  let b = Buffer.create 4096 in
  let dump () =
    Printf.bprintf b "|%d %d|" (L1.occupancy c) (L1.tx_count c);
    List.iter (add_l1_view b) (L1.tx_lines c);
    L1.iter c (add_l1_view b)
  in
  let probe line =
    Printf.bprintf b "%d:" line;
    (match L1.lookup c line with
    | None -> Buffer.add_string b "-;"
    | Some v -> add_l1_view b v);
    (match l1_room c line with
    | `Present -> Buffer.add_string b "P;"
    | `Free -> Buffer.add_string b "F;"
    | `Evict v -> add_l1_view b v);
    Printf.bprintf b "%b;" (L1.resident c line);
    L1.touch c line
  in
  dump ();
  List.iter probe [ 0; 1; 63; 64; 65; 511; 512; 4096; 1_000_003 ];
  List.iter
    (fun line ->
      guarded b (fun () -> L1.set_state c line L1.M);
      guarded b (fun () -> L1.mark_dirty c line);
      guarded b (fun () -> L1.clear_dirty c line);
      guarded b (fun () -> L1.mark_tx c line ~write:true);
      guarded b (fun () -> add_l1_view b (remove_view c line)))
    [ 0; 64; 777 ];
  List.iter (add_l1_view b) (clear_tx_views c ~drop_written:false);
  List.iter (add_l1_view b) (clear_tx_views c ~drop_written:true);
  dump ();
  L1.insert c 64 L1.E;
  L1.mark_tx c 64 ~write:false;
  L1.insert c 0 L1.M;
  List.iter probe [ 0; 64; 128 ];
  dump ();
  List.iter (add_l1_view b) (clear_tx_views c ~drop_written:true);
  dump ();
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_l1_golden_trace () =
  check Alcotest.string "seed 1" "a08db20643e853450043e1d6e9444d22"
    (l1_trace_digest ~seed:1);
  check Alcotest.string "seed 2" "b12579fbb9b41fed26324f7bbedb47f3"
    (l1_trace_digest ~seed:2)

let test_llc_golden_trace () =
  check Alcotest.string "seed 1" "02c60457f8a552eb40bf8d2201b51248"
    (llc_trace_digest ~seed:1);
  check Alcotest.string "seed 2" "c372068ce1aab08d1c618de46d8a25b9"
    (llc_trace_digest ~seed:2)


let test_llc_sparse_golden_trace () =
  check Alcotest.string "seed 1" "3f80d06de9007597c560ab1c07cc9976"
    (llc_sparse_trace_digest ~seed:1);
  check Alcotest.string "seed 2" "720b2c78fc994b8a1d596e0b7ffa1f8a"
    (llc_sparse_trace_digest ~seed:2)

(* The directory entry one core at a time, on a machine of [tiles]:
   random owner, sharer and clear steps over 16 lines, each followed by
   the line's owner, membership, snapshot and view, with evictions and
   re-insertions that reuse the ways. The narrow bitset and the wide
   [Coreset] entries must read the same. *)
let llc_entry_trace ~tiles ~seed =
  let rng = Rng.create seed in
  let c =
    Llc.create ~plan:(Shard.make ~count:4 ~tiles ~hash:Shard.Mod)
      ~bank_size_bytes:(4 * 64 * 4) ~ways:4
  in
  let m = Llc.members () and b = Buffer.create 65536 in
  for line = 0 to 15 do
    Llc.insert c line
  done;
  for _ = 1 to 3000 do
    let line = Rng.int rng 16 and core = Rng.int rng 62 in
    (match Rng.int rng 7 with
    | 0 -> Llc.set_owner c line core
    | 1 -> Llc.clear c line
    | 2 -> add_llc_view b (Llc.evict c line); Llc.insert c line
    | 3 | 4 -> if Llc.owner c line < 0 then Llc.add_sharer c line core
    | _ -> Llc.remove_core c line core);
    Llc.snapshot c line m;
    Printf.bprintf b "%d:%d:%b:%b:%d:" line (Llc.owner c line)
      (Llc.is_sharer c line core) (Llc.unshared c line) (Llc.count c m);
    let k = ref (Llc.next c m 0) in
    while !k >= 0 do
      Printf.bprintf b "%d," !k;
      k := Llc.next c m (!k + 1)
    done;
    add_llc_view b (Option.get (Llc.lookup c line))
  done;
  Buffer.contents b

let test_llc_wide_entries () =
  List.iter
    (fun seed ->
      check Alcotest.string
        (Printf.sprintf "seed %d" seed)
        (llc_entry_trace ~tiles:4 ~seed)
        (llc_entry_trace ~tiles:64 ~seed))
    [ 1; 2 ]

let test_l1_fresh_golden_trace () =
  check Alcotest.string "fresh" "cc47c526efba3ffc029d9930df3cc7ae"
    (l1_fresh_trace_digest ())

let () =
  Alcotest.run "coherence"
    [
      ( "addr",
        [
          Alcotest.test_case "line mapping" `Quick test_addr_line_mapping;
          Alcotest.test_case "home" `Quick test_addr_home;
          Alcotest.test_case "range" `Quick test_addr_range;
        ] );
      ( "coreset",
        [
          Alcotest.test_case "basics" `Quick test_coreset_basics;
          Alcotest.test_case "add/remove" `Quick test_coreset_add_remove;
          Alcotest.test_case "range check" `Quick test_coreset_range_check;
          QCheck_alcotest.to_alcotest prop_coreset_model;
        ] );
      ("party", [ Alcotest.test_case "packing" `Quick test_party_packing ]);
      ( "l1",
        [
          Alcotest.test_case "geometry" `Quick test_l1_geometry;
          Alcotest.test_case "insert/lookup" `Quick test_l1_insert_lookup;
          Alcotest.test_case "M is dirty" `Quick test_l1_insert_m_is_dirty;
          Alcotest.test_case "double insert" `Quick
            test_l1_double_insert_rejected;
          Alcotest.test_case "victim preference" `Quick
            test_l1_room_and_eviction_preference;
          Alcotest.test_case "remove" `Quick test_l1_remove;
          Alcotest.test_case "tx tracking" `Quick test_l1_tx_tracking;
          Alcotest.test_case "commit clear" `Quick test_l1_clear_tx_commit;
          Alcotest.test_case "abort clear" `Quick
            test_l1_clear_tx_abort_drops_written;
          Alcotest.test_case "bad geometry" `Quick
            test_l1_bad_geometry_rejected;
          QCheck_alcotest.to_alcotest prop_l1_never_exceeds_capacity;
          QCheck_alcotest.to_alcotest prop_l1_matches_lru_model;
          Alcotest.test_case "golden trace" `Quick test_l1_golden_trace;
          Alcotest.test_case "golden trace, never filled" `Quick
            test_l1_fresh_golden_trace;
        ] );
      ( "shard",
        [
          Alcotest.test_case "default plan is historical" `Quick
            test_shard_default_is_historical;
          Alcotest.test_case "make validates" `Quick test_shard_make_validates;
          QCheck_alcotest.to_alcotest prop_shard_in_range;
          Alcotest.test_case "mix spreads strides" `Quick
            test_shard_mix_spreads_strides;
        ] );
      ( "llc",
        [
          Alcotest.test_case "geometry" `Quick test_llc_geometry;
          Alcotest.test_case "insert/dir" `Quick test_llc_insert_dir;
          Alcotest.test_case "quiet victim preference" `Quick
            test_llc_victim_prefers_quiet_lines;
          Alcotest.test_case "evict" `Quick test_llc_evict;
          Alcotest.test_case "golden trace" `Quick test_llc_golden_trace;
          Alcotest.test_case "golden trace, 16-way sparse" `Quick
            test_llc_sparse_golden_trace;
          Alcotest.test_case "wide entries read as narrow" `Quick
            test_llc_wide_entries;
        ] );
      ( "protocol-mesi",
        [
          Alcotest.test_case "cold read E" `Quick
            test_proto_cold_read_is_exclusive;
          Alcotest.test_case "l1 hit" `Quick test_proto_second_read_hits_l1;
          Alcotest.test_case "read sharing" `Quick test_proto_read_sharing;
          Alcotest.test_case "write invalidates" `Quick
            test_proto_write_invalidates_sharers;
          Alcotest.test_case "downgrade on read" `Quick
            test_proto_write_then_read_downgrades;
          Alcotest.test_case "upgrade" `Quick test_proto_upgrade;
          Alcotest.test_case "silent E->M" `Quick
            test_proto_silent_write_upgrade_from_e;
          Alcotest.test_case "eviction writeback" `Quick
            test_proto_l1_eviction_writeback;
          Alcotest.test_case "rmw" `Quick test_proto_rmw_behaves_like_write;
          QCheck_alcotest.to_alcotest prop_proto_random_plain_traffic;
        ] );
      ( "protocol-htm",
        [
          Alcotest.test_case "tx bits" `Quick test_proto_tx_marks_bits;
          Alcotest.test_case "requester-win abort" `Quick
            test_proto_requester_win_aborts_holder;
          Alcotest.test_case "read-read ok" `Quick
            test_proto_read_read_no_conflict;
          Alcotest.test_case "recovery reject" `Quick
            test_proto_recovery_rejects_lower_priority;
          Alcotest.test_case "recovery abort" `Quick
            test_proto_recovery_aborts_higher_priority_requester;
          Alcotest.test_case "mixed sharer verdicts" `Quick
            test_proto_sharer_conflict_mixed_verdicts;
          Alcotest.test_case "lock holder protected" `Quick
            test_proto_lock_holder_never_aborted;
          Alcotest.test_case "overflow abort" `Quick
            test_proto_overflow_abort_on_tx_eviction;
          Alcotest.test_case "stale request" `Quick
            test_proto_stale_request_dropped;
          Alcotest.test_case "commit flush" `Quick
            test_proto_commit_flush_keeps_lines;
          Alcotest.test_case "abort flush" `Quick
            test_proto_abort_flush_drops_written;
          Alcotest.test_case "flush core" `Quick test_proto_flush_core;
          Alcotest.test_case "stats counters" `Quick
            test_proto_stats_counters;
          Alcotest.test_case "default config" `Quick
            test_proto_default_config_matches_table1;
          Alcotest.test_case "latency ordering" `Quick
            test_proto_latency_ordering;
          Alcotest.test_case "msi mode" `Quick test_msi_mode_no_exclusive;
          Alcotest.test_case "limited-pointer broadcast" `Quick
            test_limited_pointer_broadcast;
          Alcotest.test_case "l1 iter" `Quick test_l1_iter_and_occupancy;
          Alcotest.test_case "llc iter" `Quick test_llc_iter;
        ] );
      ( "invariants",
        List.map
          (fun ((name, _, _) as case) ->
            Alcotest.test_case name `Quick (fun () -> test_violation case))
          invariant_cases );
    ]
