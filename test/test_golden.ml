(* Golden result digests: the MD5 of [Runner.result_to_json] for a fixed
   grid of runs, recorded once and compared on every [dune runtest].
   The simulator is deterministic, so any change to a result byte —
   cycles, counts, breakdown, percentiles — shows up here as a changed
   digest. A change that alters results on purpose updates this table
   and says so in CHANGES.md; a refactor must leave it untouched.

   The grid covers every system on a contended (intruder), a faulting
   (yada) and a barrier-phased (kmeans) workload, odd and large machine
   shapes, a run with the invariant sanitizer attached (which must not
   move a result: its digest is intruder/LockillerTM's), one open-loop
   replay of a generated bursty trace and one hand-written program. Each experiment's JSON
   document (as [experiment ID --format json] prints it, without the
   trailing newline) is pinned at 4 cores, 2 threads and scale 0.05.

   A second table pins the runtime, protocol and network [Stats] groups
   (every counter, and each histogram's count and sum) of every system
   on intruder, the sharded 256-core run and the replay: counters such
   as writebacks, invalidations, lock_busy_aborts and sw_aborts reach
   no result field, so the first table cannot see them move.

   A third table pins the Perfetto export ([Tracing.perfetto_json]) of
   ledgered 4-core runs that between them reach every span and instant
   kind: transactions, HTMLock sections, lock holds, software
   transactions, faults, conflict traffic, a wrapped ring (closes with
   no open, spans still open at the end), telemetry counter tracks, and
   a hand-built ledger with every kind and every unmatched record. *)

module Config = Lk_sim.Config
module Runner = Lk_sim.Runner
module Workload_source = Lk_sim.Workload_source
module Sysconf = Lk_lockiller.Sysconf
module Suite = Lk_stamp.Suite
module Program = Lk_cpu.Program
module Gen = Lk_trace.Gen
module Experiments = Lk_sim.Experiments
module Report = Lk_sim.Report
module Json = Lk_sim.Json
module Stats = Lk_engine.Stats
module Runtime = Lk_lockiller.Runtime
module Protocol = Lk_coherence.Protocol
module Network = Lk_mesh.Network
module Ledger = Lk_engine.Ledger
module Tracing = Lk_sim.Tracing

let digest r = Digest.to_hex (Digest.string (Runner.result_to_json r))
let sysconf name = Option.get (Sysconf.find name)
let workload name = Option.get (Suite.find name)

let options ?(scale = 1.0) ?(on_runtime = ignore) ?(check = false) machine =
  { Runner.default_options with Runner.machine; scale; on_runtime; check }

let four = Config.machine ~cores:4 ()
let paper = Config.machine ~cores:32 ()

let run ?scale ?on_runtime ?check ?(machine = four) ?(threads = 4) system wl
    () =
  digest
    (Runner.run
       ~options:(options ?scale ?on_runtime ?check machine)
       ~sysconf:(sysconf system) ~workload:(workload wl) ~threads ())

(* A bursty Gen trace, replayed open-loop on 4 cores. *)
let replay ?on_runtime () =
  let records = ref [] in
  let profile =
    {
      Gen.default with
      Gen.users = 2000;
      think_time = 40_000.;
      duration = 60_000;
      burst_every = 20_000;
      burst_len = 4_000;
      burst_mult = 4.0;
      cores = 4;
      affinity = Gen.Uniform;
    }
  in
  ignore
    (Result.get_ok
       (Gen.generate profile ~seed:5 ~emit:(fun r -> records := r :: !records)));
  let pending = ref (List.rev !records) in
  let next () =
    match !pending with
    | [] -> Ok None
    | r :: rest ->
      pending := rest;
      Ok (Some r)
  in
  digest
    (Runner.replay ~options:(options ?on_runtime four)
       ~sysconf:(sysconf "LockillerTM")
       ~open_loop:
         { Workload_source.trace_name = "burst"; next; body = workload "vacation" }
       ~threads:4 ())

(* Two tellers moving money between shared accounts, with a fault. *)
let program () =
  let text =
    {|thread
  tx pre=10 post=5
    read 0x1000
    add 0x1000 -5
    add 0x1040 5
  tx pre=3 post=0
    incr 0x2000
    fault
    incr 0x2040
thread
  tx pre=0 post=7
    read 0x1040
    add 0x1040 -2
    add 0x1000 2
  tx pre=4 post=4
    incr 0x2000
    compute 30
    incr 0x2040
|}
  in
  let program = Result.get_ok (Program.of_text text) in
  digest
    (Runner.run_program ~options:(options four) ~name:"bank"
       ~sysconf:(sysconf "LockillerTM") ~program ())

(* The topology experiment builds a torus, which needs at least 3 tiles
   a side, so it runs on the smallest square machine that has one. *)
let experiment (e : Experiments.experiment) () =
  let cores = if e.Experiments.id = "topology" then 9 else 4 in
  let ctx = Experiments.make_context ~scale:0.05 ~cores ~threads:[ 2 ] () in
  let doc =
    Json.Obj
      [
        ("id", Json.String e.Experiments.id);
        ("artefact", Json.String e.Experiments.artefact);
        ("describe", Json.String e.Experiments.describe);
        ( "tables",
          Json.List (List.map Report.json_of_table (Experiments.execute ctx e))
        );
      ]
  in
  Digest.to_hex (Digest.string (Json.to_string (Json.List [ doc ])))

let grid =
  List.concat_map
    (fun wl ->
      List.map
        (fun s -> (wl ^ "/" ^ s.Sysconf.name, run s.Sysconf.name wl))
        (Sysconf.all @ Sysconf.extras @ Sysconf.hybrid))
    [ "intruder"; "yada"; "kmeans" ]
  @ [
      ( "7 cores",
        run ~machine:(Config.machine ~cores:7 ()) ~threads:7 "LockillerTM"
          "intruder" );
      ( "16 cores",
        run ~machine:(Config.machine ~cores:16 ()) ~threads:16 ~scale:0.5
          "LockillerTM" "genome" );
      ( "100 cores",
        run ~machine:(Config.machine ~cores:100 ()) ~threads:100 ~scale:0.1
          "LockillerTM" "vacation" );
      ( "256 cores, sharded directory",
        run
          ~machine:(Config.machine ~cores:256 ~dir_shards:16 ())
          ~threads:256 ~scale:0.05 "LockillerTM" "ssca2" );
      ("sanitizer attached", run ~check:true "LockillerTM" "intruder");
      ("replay of a bursty trace", fun () -> replay ());
      ("hand-written program", program);
    ]
  @ List.map
      (fun (e : Experiments.experiment) ->
        ("experiment " ^ e.Experiments.id, experiment e))
      Experiments.all
  (* The paper's 4x8 machine: every system at 16 threads, and the
     headline claims at the default thread counts. *)
  @ List.map
      (fun s ->
        ( "32 cores, intruder/" ^ s.Sysconf.name,
          run ~machine:paper ~threads:16 ~scale:0.5 s.Sysconf.name "intruder"
        ))
      (Sysconf.all @ Sysconf.extras @ Sysconf.hybrid)
  @ [
      ( "32 cores, experiment headline",
        fun () ->
          let ctx = Experiments.make_context ~scale:0.1 () in
          Json.List
            (List.map Report.json_of_table
               (Experiments.execute ctx Experiments.headline))
          |> Json.to_string |> Digest.string |> Digest.to_hex );
    ]

(* The MD5 of the run's runtime, protocol and network [Stats] groups,
   one line per counter and per histogram (count and sum). *)
let stats_digest run () =
  let runtime = ref None in
  ignore (run ~on_runtime:(fun rt -> runtime := Some rt) ());
  let rt = Option.get !runtime in
  let lines name group =
    List.map
      (fun (k, v) -> Printf.sprintf "%s.%s %d" name k v)
      (Stats.counters group)
    @ List.map
        (fun (k, h) ->
          Printf.sprintf "%s.%s %d %d" name k (Stats.hdr_count h)
            (Stats.hdr_sum h))
        (Stats.hdrs group)
  in
  let proto = Runtime.protocol rt in
  lines "runtime" (Runtime.stats rt)
  @ lines "protocol" (Protocol.stats proto)
  @ lines "network" (Network.stats (Protocol.network proto))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let stats_grid =
  List.map
    (fun s ->
      ( "intruder/" ^ s.Sysconf.name,
        stats_digest (fun ~on_runtime ->
            run ~on_runtime s.Sysconf.name "intruder") ))
    (Sysconf.all @ Sysconf.extras @ Sysconf.hybrid)
  @ [
      ( "256 cores, sharded directory",
        stats_digest (fun ~on_runtime ->
            run ~on_runtime
              ~machine:(Config.machine ~cores:256 ~dir_shards:16 ())
              ~threads:256 ~scale:0.05 "LockillerTM" "ssca2") );
      ( "replay of a bursty trace",
        stats_digest (fun ~on_runtime -> replay ~on_runtime) );
    ]

(* The MD5 of the Perfetto export of a run whose ledger holds
   [capacity] records, with telemetry counter tracks when asked. *)
let perfetto ?capacity ?(telemetry = false) ?scale system wl () =
  let ledger = ref None and tele = ref None in
  let options =
    {
      (options ?scale
         ~on_runtime:(fun rt ->
           ledger := Some (Runtime.enable_ledger ?capacity rt))
         four)
      with
      Runner.telemetry =
        (if telemetry then
           Some (Runner.telemetry_request (fun t -> tele := Some t))
         else None);
    }
  in
  ignore
    (Runner.run ~options ~sysconf:(sysconf system) ~workload:(workload wl)
       ~threads:4 ());
  Json.to_string
    (Tracing.perfetto_json ?telemetry:!tele (Option.get !ledger))
  |> Digest.string |> Digest.to_hex

(* Every kind on core 0, each span kind closed once with no open and
   left open at the end on core 1, aborts attributed to another core
   (flows) and to none, and a reason index out of range. *)
let synthetic () =
  let sim = Lk_engine.Sim.create () in
  let l = Ledger.create sim in
  let abort reason who = Ledger.pack_abort ~reason ~who ~age:7 in
  let attr who = Ledger.pack_attr ~who ~age:3 in
  let records =
    [
      (0, Ledger.Tx_commit, 2); (0, Ledger.Tx_abort, abort 1 1);
      (0, Ledger.Hl_end, 1); (0, Ledger.Lock_release, 0);
      (0, Ledger.Sw_commit, 5); (0, Ledger.Sw_abort, abort 2 (-1));
      (0, Ledger.Tx_begin, 0); (0, Ledger.Tx_abort, abort 0 1);
      (0, Ledger.Tx_begin, 1); (0, Ledger.Tx_commit, 2);
      (0, Ledger.Tx_begin, 2); (0, Ledger.Tx_abort, abort 15 (-1));
      (0, Ledger.Hl_begin, 0); (0, Ledger.Hl_end, 0);
      (0, Ledger.Hl_begin, 0); (0, Ledger.Hl_end, 1);
      (0, Ledger.Lock_acquire, 0); (0, Ledger.Lock_release, 0);
      (0, Ledger.Sw_begin, 11); (0, Ledger.Sw_commit, 12);
      (0, Ledger.Sw_begin, 13); (0, Ledger.Sw_abort, abort 3 1);
      (0, Ledger.Nack, attr 1); (0, Ledger.Reject, attr (-1));
      (0, Ledger.Abort_kill, attr 1); (0, Ledger.Park, 0);
      (0, Ledger.Wake, 0); (0, Ledger.Switch_granted, 0);
      (0, Ledger.Switch_denied, 0); (0, Ledger.Spill, 4242);
      (0, Ledger.Spec_publish, 3);
      (0, Ledger.Spec_discard, Ledger.pack_discard ~writes:4 ~age:9);
      (0, Ledger.Clock_advance, 14); (1, Ledger.Tx_begin, 3);
      (1, Ledger.Hl_begin, 0); (1, Ledger.Lock_acquire, 0);
      (1, Ledger.Sw_begin, 15); (1, Ledger.Park, 0);
    ]
  in
  List.iteri
    (fun i (core, kind, arg) ->
      Lk_engine.Sim.schedule_at sim ~time:(10 * (i + 1)) (fun () ->
          Ledger.emit l ~core kind ~arg))
    records;
  Lk_engine.Sim.run sim;
  Json.to_string (Tracing.perfetto_json l) |> Digest.string |> Digest.to_hex

let perfetto_grid =
  [
    ("LockillerTM/intruder", perfetto "LockillerTM" "intruder");
    ("SW-TL2/vacation", perfetto "SW-TL2" "vacation");
    ("CGL/kmeans", perfetto "CGL" "kmeans");
    ("LockillerTM/yada", perfetto "LockillerTM" "yada");
    ( "LockillerTM/labyrinth, 16-record ring",
      perfetto ~capacity:16 "LockillerTM" "labyrinth" );
    ( "LockillerTM/intruder, telemetry",
      perfetto ~telemetry:true ~scale:0.2 "LockillerTM" "intruder" );
    ("hand-built ledger", synthetic);
  ]

let golden_perfetto =
  [
    ("LockillerTM/intruder", "e11fe4a159787adcbe94d29ccf47c4c5");
    ("SW-TL2/vacation", "25063ff6cecea8c7628e8ecb45b3136b");
    ("CGL/kmeans", "067fdf5f5afca4f3247abdc1ba7e77fc");
    ("LockillerTM/yada", "6eb78db04874c12849cab9d5d849c992");
    ("LockillerTM/labyrinth, 16-record ring", "cf91c010eb9c153ce64567c512e63db2");
    ("LockillerTM/intruder, telemetry", "d2ad347961acc964017e59ca2b3e091a");
    ("hand-built ledger", "ddbaa92485229d484000d74ee3098da9");
  ]

let golden_stats =
  [
    ("intruder/CGL", "c5441d20af6c97489b8e72171aa5c1a4");
    ("intruder/Baseline", "dd75ed1577744a0361035ed950f8c615");
    ("intruder/LosaTM-SAFU", "2424262be3b1edd68a6bd564fa4643e8");
    ("intruder/LockillerTM-RAI", "868dbd885e9417b83fb36e3033bba8ce");
    ("intruder/LockillerTM-RRI", "a48e3e7f82ff1ab08b52ff481c272a98");
    ("intruder/LockillerTM-RWI", "2993384dcc1936fb993f85714816b0cd");
    ("intruder/LockillerTM-RWL", "ddb2f0ccf079407dbe50999da80779e2");
    ("intruder/LockillerTM-RWIL", "bbe1aa57ff320df107d0f12c4db377a2");
    ("intruder/LockillerTM", "ba98f735905fef0fb6b8853ae2d7b571");
    ("intruder/CGL-Ticket", "788d7d9c5b58c8f42dfa75df4b753773");
    ("intruder/LockillerTM-RWS", "0fedbb7c5eb360545ba215acfa886cb7");
    ("intruder/SW-TL2", "11bd6916f67314979083d8942dd64e7c");
    ("intruder/HyTM-GV1", "e6d2e17282f29b9e9aa31bee3811f817");
    ("intruder/HyTM-GV5", "7bb56529e0294389ea5a9fbe5244f5c0");
    ("intruder/HyTM-RC", "4a336ef445b702a63f54797fd581738c");
    ("intruder/HyTM-MD", "767e2a81bd402d149ebb212fecb65d57");
    ("256 cores, sharded directory", "455c3fad8ed7f15206788e224756f371");
    ("replay of a bursty trace", "e0051339b2773e0b83e654e2351f11b5");
  ]

let golden =
  [
    ("intruder/CGL", "2b1e556ab020016b243c49205b87a6d0");
    ("intruder/Baseline", "5c59e37e6c718439a8d780b70895c702");
    ("intruder/LosaTM-SAFU", "32750ea91e6a18d23a3a0b151a96b741");
    ("intruder/LockillerTM-RAI", "ce275d11c86298ec47322034b0998c87");
    ("intruder/LockillerTM-RRI", "9d4efaab8eef24c2a6653c51190071fc");
    ("intruder/LockillerTM-RWI", "8d4e6e5556163f2ddb81eb89c81a8e17");
    ("intruder/LockillerTM-RWL", "be712cf6110aca200bcd7f6a5cc06985");
    ("intruder/LockillerTM-RWIL", "2db6080f0cd66ac0032e7a266982caf9");
    ("intruder/LockillerTM", "0aeb4214c9f384b0d2dccef2335cd2a2");
    ("intruder/CGL-Ticket", "56812c9350bc20da1df6153728ab361f");
    ("intruder/LockillerTM-RWS", "a59cfbf1b5f921f5f903e60d565dbef3");
    ("intruder/SW-TL2", "3e950a0ad49f58c7f01de63b57c4f492");
    ("intruder/HyTM-GV1", "de5d5141894ad2eab617256b7ba2c8ea");
    ("intruder/HyTM-GV5", "667d9c023588a4b772a30c61e280aff8");
    ("intruder/HyTM-RC", "716d4a4d156eb7ab19c6394cbc0e5ad7");
    ("intruder/HyTM-MD", "cd4e977a81d64e224bb2eab5a90620e3");
    ("yada/CGL", "acb129f0cc32026b56737382abdabb75");
    ("yada/Baseline", "93cd138ee2db3c2a480abf1d3e6d3fa6");
    ("yada/LosaTM-SAFU", "edaa0808cbfcf56948c052b589e33c0b");
    ("yada/LockillerTM-RAI", "c0440504cd9205f48b9e7439c3ad3a59");
    ("yada/LockillerTM-RRI", "4c2ef6ae3abef88800c693c0d227990a");
    ("yada/LockillerTM-RWI", "be9e815c44483673ba8a8a0499beba8a");
    ("yada/LockillerTM-RWL", "51324f24eb7f2f9d1818b9ed97634c5d");
    ("yada/LockillerTM-RWIL", "7b47a854ad98f1764ff3f238886d9d46");
    ("yada/LockillerTM", "6c853f03f633c4c4ed9a070f2b711174");
    ("yada/CGL-Ticket", "99e88ff71da55890a540ecb6af0045f6");
    ("yada/LockillerTM-RWS", "02dcfaebcb8758dfd98e707231446a6b");
    ("yada/SW-TL2", "5a7a49117a258d2ec8532906fcc79cdf");
    ("yada/HyTM-GV1", "e0ffe894abe71face383c793ca948357");
    ("yada/HyTM-GV5", "b64c544be17b4bc1136bda4e6814e88c");
    ("yada/HyTM-RC", "1102a9dcfd60c64a5bfd922682b16052");
    ("yada/HyTM-MD", "094deee63b13395c6f522173daf9cb87");
    ("kmeans/CGL", "00f9afcbefd21a9f6ed4c0da5b08ea33");
    ("kmeans/Baseline", "80285f8beefa1949857334300606fa48");
    ("kmeans/LosaTM-SAFU", "203851e8912ad4261c6d12ef2d100119");
    ("kmeans/LockillerTM-RAI", "8472e6ca9773591d863075194857286a");
    ("kmeans/LockillerTM-RRI", "4ff277b1fcc48211c875cf5dba2dfeed");
    ("kmeans/LockillerTM-RWI", "33359d95b3f0dc54cb7b7f57be15ccbe");
    ("kmeans/LockillerTM-RWL", "1c5f8f5e10a689d1dac56fa87923f479");
    ("kmeans/LockillerTM-RWIL", "62ffe45912533c5cd6935bb94495b8b7");
    ("kmeans/LockillerTM", "9812a669fcc35663b82f684673e6ac61");
    ("kmeans/CGL-Ticket", "f5057b6dfd995b0d2e55654358819764");
    ("kmeans/LockillerTM-RWS", "6c077a9f4814c41a6f43542012af0013");
    ("kmeans/SW-TL2", "f96bcaea73f979629c10c9dad01c74a6");
    ("kmeans/HyTM-GV1", "497ba33525f06ee5a5a468d8bfb475dc");
    ("kmeans/HyTM-GV5", "aba6adb4a252ccdec8109ffa1ade1167");
    ("kmeans/HyTM-RC", "ad7e3e3cb519352957b6e5ca831464d7");
    ("kmeans/HyTM-MD", "f777245af6979ea8f9f346bf4d1461db");
    ("7 cores", "e2951cb845d35383cba71c28c47f7f67");
    ("16 cores", "e194f0541cd09d5ac1d35d3ae23abfda");
    ("100 cores", "8c200256cfffd397d30470b6e3154e32");
    ("256 cores, sharded directory", "b12f62b3ecea2973c85247dbd1c6978b");
    ("sanitizer attached", "0aeb4214c9f384b0d2dccef2335cd2a2");
    ("replay of a bursty trace", "6038210ad615db0a1f3717bd842f4496");
    ("hand-written program", "7a6fd41a52d7589e12836064bd0878df");
    ("experiment table1", "b1fdb7f6f962a578a9a0ff463d0a65f4");
    ("experiment table2", "9c8b3d113522ded8e6cb7f7de2b73328");
    ("experiment fig1", "c722c6e1d918d175a828ff831cd7772c");
    ("experiment fig7", "34c495bbb7891b9ccb40fd5b90da82b3");
    ("experiment fig8", "3dfe579517d8c6b43f5a0624845ea291");
    ("experiment fig9", "e376b5dccefba1a43de10dd0df7260bb");
    ("experiment fig10", "2af859fbaf33d9410b3484bbdcb52b7c");
    ("experiment fig11", "3f17058bd6fb4c7b591b4e4fd449d434");
    ("experiment fig12", "db2584ffc17dae11c37db5bfbb22b79e");
    ("experiment fig13", "8e4524e3affec7e104a3d6b3ed270bb3");
    ("experiment headline", "2250e46c38768ddcdeab2e549bb55f48");
    ("experiment ablation", "b0e1b47002008a35f869820671080b23");
    ("experiment txsize", "ead150822c8a3774d070cc01a40b756f");
    ("experiment noc", "1d7cbd32a777a2817770ab3cc2144065");
    ("experiment topology", "925175296aa270687e3b949678996a51");
    ("experiment placement", "b23a2733020ea940033b01561127ef2f");
    ("experiment protocol", "a447adbd1d86aa982a902870fb255956");
    ("experiment variance", "78585ab8c7285e1ed9503743abf23436");
    ("experiment latency", "e0ee9888980cfff11c3ad3c741f69869");
    ("experiment hytm", "91334fa93ec7594b1c703e085f841cd7");
    ("experiment wasted", "5232f61d82fe0c347180ce44689ac68c");
    ("32 cores, intruder/CGL", "347ee733b9ce71f861793de5ff80ee5c");
    ("32 cores, intruder/Baseline", "117d24ffd2174020b663ce6fac8f68b5");
    ("32 cores, intruder/LosaTM-SAFU", "374562d83bfecb5b149c9624324f40c6");
    ("32 cores, intruder/LockillerTM-RAI", "9dfb33597df0fcd7cb67f78d1dc412db");
    ("32 cores, intruder/LockillerTM-RRI", "7e7146cf70035df3cd3aaec201e4d7e0");
    ("32 cores, intruder/LockillerTM-RWI", "4ae0555b5566be6d9766e1ea4aca8bcb");
    ("32 cores, intruder/LockillerTM-RWL", "25427a03ed728c6eb85c48df4831f7eb");
    ("32 cores, intruder/LockillerTM-RWIL", "3ece063b197b92a7538dcf5d0d55dd66");
    ("32 cores, intruder/LockillerTM", "d464b20ac116419f74cdc2a122f61c4f");
    ("32 cores, intruder/CGL-Ticket", "775dd6ebf443ce80fab541fb24ca8976");
    ("32 cores, intruder/LockillerTM-RWS", "c134fa8b5375bc566be60c99f17a507c");
    ("32 cores, intruder/SW-TL2", "98e19bdce4624d12fbcdc4e9aea9ff73");
    ("32 cores, intruder/HyTM-GV1", "c5743bb0926a52f6912c3c225b58c431");
    ("32 cores, intruder/HyTM-GV5", "9e176b63c503ec11bb9f772a899eee68");
    ("32 cores, intruder/HyTM-RC", "1c73b7b4f594b2414b02051c1c592b5e");
    ("32 cores, intruder/HyTM-MD", "24d65e6e65ebecb8ef04ce3be42d97d8");
    ("32 cores, experiment headline", "67619f169a3f1a2fc9121187438b4e1c");
  ]

let () =
  let cases table =
    List.map (fun (label, f) ->
        Alcotest.test_case label `Quick (fun () ->
            Alcotest.(check (option string))
              label (List.assoc_opt label table) (Some (f ()))))
  in
  let covers grid table () =
    Alcotest.(check (list string))
      "one digest per grid entry" (List.map fst grid) (List.map fst table)
  in
  Alcotest.run "golden"
    [
      ("result digests", cases golden grid);
      ("stats digests", cases golden_stats stats_grid);
      ("perfetto digests", cases golden_perfetto perfetto_grid);
      ( "table",
        [
          Alcotest.test_case "covers the grid" `Quick (covers grid golden);
          Alcotest.test_case "covers the stats grid" `Quick
            (covers stats_grid golden_stats);
          Alcotest.test_case "covers the perfetto grid" `Quick
            (covers perfetto_grid golden_perfetto);
        ] );
    ]
