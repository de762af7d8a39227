module Sysconf = Lk_lockiller.Sysconf
module Reason = Lk_htm.Reason
module Accounting = Lk_cpu.Accounting
module Workload = Lk_stamp.Workload
module Suite = Lk_stamp.Suite

(* A job is plain data, so the recorder can deduplicate jobs by
   structural equality without digesting each one; [Runner.options]
   (which carries a closure) is built only to key or run it. *)
type job = {
  j_seed : int;
  j_scale : float;
  j_machine : Config.t;
  j_placement : Runner.placement;
  j_sysconf : Sysconf.t;
  j_workload : Workload.profile;
  j_threads : int;
}

module Jobs = Hashtbl.Make (struct
  type t = job

  let equal = ( = )

  (* The generic hash gives up inside [j_machine], before the names. *)
  let hash j =
    Hashtbl.hash
      ( j.j_sysconf.Sysconf.name,
        j.j_workload.Workload.name,
        j.j_threads,
        j.j_seed )
end)

type context = {
  seed : int;
  scale : float;
  cores : int;
  threads : int list;
  jobs : int;
  cache : Cache.t option;
  keyer : Cache.t;
      (* Key computation needs a schema tag even when no disk cache is
         attached; this is [cache] when present, else a directory-less
         stand-in that never touches the filesystem. *)
  memo : (string, Runner.result) Hashtbl.t;
  mutable simulated : int;
  mutable recorder : recorder option;
      (* [Some] while [plan] runs a renderer to list its jobs. *)
}

and recorder = { seen : unit Jobs.t; mutable order : job list }

let make_context ?(seed = 1) ?(scale = 1.0) ?(cores = 32)
    ?(threads = [ 2; 4; 8; 16; 32 ]) ?(jobs = 1) ?cache () =
  List.iter
    (fun t ->
      if t <= 0 then
        invalid_arg
          (Printf.sprintf
             "Experiments.make_context: thread counts must be positive (got \
              %d)"
             t))
    threads;
  let threads = List.filter (fun t -> t <= cores) threads in
  if threads = [] then invalid_arg "Experiments.make_context: no thread counts";
  {
    seed;
    scale;
    cores;
    threads;
    jobs = max 1 jobs;
    cache;
    keyer =
      (match cache with Some c -> c | None -> Cache.create ~dir:"" ());
    memo = Hashtbl.create 256;
    simulated = 0;
    recorder = None;
  }

let thread_counts ctx = ctx.threads
let simulations ctx = ctx.simulated

let job ctx ?(cache = Config.Typical) ?machine ?placement ?seed ~sysconf
    ~workload ~threads () =
  {
    j_seed = Option.value seed ~default:ctx.seed;
    j_scale = ctx.scale;
    j_machine =
      (match machine with
      | Some m -> m
      | None -> Config.machine ~cache ~cores:ctx.cores ());
    j_placement = Option.value placement ~default:Runner.Compact;
    j_sysconf = sysconf;
    j_workload = workload;
    j_threads = threads;
  }

let options j =
  {
    Runner.default_options with
    Runner.seed = j.j_seed;
    scale = j.j_scale;
    machine = j.j_machine;
    placement = j.j_placement;
  }

let job_key ctx j =
  Cache.key ctx.keyer ~options:(options j) ~sysconf:j.j_sysconf
    ~workload:j.j_workload ~threads:j.j_threads

let simulate j =
  Runner.run ~options:(options j) ~sysconf:j.j_sysconf ~workload:j.j_workload
    ~threads:j.j_threads ()

let commit ctx key r =
  ctx.simulated <- ctx.simulated + 1;
  (match ctx.cache with Some c -> Cache.store c key r | None -> ());
  Hashtbl.replace ctx.memo key r

(* Memo, then disk cache; a disk hit is memoised. *)
let lookup ctx key =
  match Hashtbl.find_opt ctx.memo key with
  | Some _ as hit -> hit
  | None ->
    let hit = Option.bind ctx.cache (fun c -> Cache.find c key) in
    Option.iter (Hashtbl.replace ctx.memo key) hit;
    hit

let run_job ctx j =
  match ctx.recorder with
  | Some r ->
    if not (Jobs.mem r.seen j) then begin
      Jobs.add r.seen j ();
      r.order <- j :: r.order
    end;
    (* Every count present (renderers [List.assoc] into the breakdown
       and the abort mix) and positive cycles, so speedups and ratios
       stay finite. *)
    Runner.zero_result
  | None -> (
    let key = job_key ctx j in
    match lookup ctx key with
    | Some r -> r
    | None ->
      let r = simulate j in
      commit ctx key r;
      r)

let prefetch ctx plan =
  (* A plan lists each job once. Satisfy what we can from the memo and
     the disk cache; only the remainder hits the pool. Results commit
     in plan order, so the memo (and therefore any rendering) is
     independent of completion order. *)
  let todo =
    List.filter_map
      (fun j ->
        let key = job_key ctx j in
        if Option.is_some (lookup ctx key) then None else Some (key, j))
      plan
    |> Array.of_list
  in
  let results = Pool.map ~jobs:ctx.jobs (fun (_, j) -> simulate j) todo in
  Array.iteri (fun i (key, _) -> commit ctx key results.(i)) todo

let result ctx ?(cache = Config.Typical) ~sysconf ~workload ~threads () =
  run_job ctx (job ctx ~cache ~sysconf ~workload ~threads ())

let speedup_vs_cgl ctx ?(cache = Config.Typical) ~sysconf ~workload ~threads ()
    =
  let cgl = result ctx ~cache ~sysconf:Sysconf.cgl ~workload ~threads () in
  let r = result ctx ~cache ~sysconf ~workload ~threads () in
  Metrics.speedup ~baseline_cycles:cgl.Runner.cycles ~cycles:r.Runner.cycles

type experiment = {
  id : string;
  artefact : string;
  describe : string;
  plan : context -> job list;
  render : context -> Report.table list;
}

(* The plan is one pass of [render] in which [run_job] records instead
   of running. It lists every job the real render needs only because no
   renderer picks its jobs by looking at a result value: the
   placeholders would steer it. The test suite checks this for every
   experiment. *)
let record render ctx =
  let r = { seen = Jobs.create 64; order = [] } in
  ctx.recorder <- Some r;
  Fun.protect
    ~finally:(fun () -> ctx.recorder <- None)
    (fun () -> ignore (render ctx));
  List.rev r.order

let experiment ~id ~artefact ~describe render =
  { id; artefact; describe; plan = record render; render }

let execute ctx e =
  prefetch ctx (e.plan ctx);
  e.render ctx

(* --- Table I ---------------------------------------------------------- *)

let table1 =
  experiment ~id:"table1" ~artefact:"Table I"
    ~describe:"System model parameters"
    (fun ctx ->
      let machine = Config.machine ~cores:ctx.cores () in
      [
        Report.table ~title:"Table I: System Model Parameters"
          ~headers:[ "Component"; "Value" ]
          (List.map (fun (k, v) -> [ k; v ]) (Config.table1 machine));
      ])

(* --- Table II --------------------------------------------------------- *)

let table2 =
  experiment ~id:"table2" ~artefact:"Table II"
    ~describe:"Evaluated systems"
    (fun _ctx ->
      [
        Report.table ~title:"Table II: Evaluated Systems"
          ~headers:[ "System"; "Composition" ]
          (List.map
             (fun s -> [ s.Sysconf.name; Format.asprintf "%a" Sysconf.pp s ])
             Sysconf.all);
      ])

(* --- Fig 1: motivation ------------------------------------------------ *)

let fig1 =
  experiment ~id:"fig1" ~artefact:"Fig 1"
    ~describe:
      "Speedup of requester-win best-effort HTM vs coarse-grained locking, \
       2 threads"
    (fun ctx ->
      let rows =
        List.map
          (fun w ->
            let s =
              speedup_vs_cgl ctx ~sysconf:Sysconf.baseline ~workload:w
                ~threads:2 ()
            in
            [ w.Workload.name; Report.f2 s ])
          Suite.all
      in
      [
        Report.table
          ~title:
            "Fig 1: Best-effort HTM (requester-win) speedup over CGL, 2 \
             threads"
          ~headers:[ "workload"; "speedup" ]
          ~notes:
            [
              "< 1.00 means HTM loses to coarse-grained locking — the \
               paper's motivation.";
            ]
          rows;
      ])

(* --- Fig 7: per-workload speedups ------------------------------------- *)

let fig7_systems =
  [
    Sysconf.baseline;
    Sysconf.losa_safu;
    Sysconf.lockiller_rai;
    Sysconf.lockiller_rri;
    Sysconf.lockiller_rwi;
    Sysconf.lockiller_rwl;
    Sysconf.lockiller_rwil;
    Sysconf.lockiller;
  ]

let fig7 =
  experiment ~id:"fig7" ~artefact:"Fig 7"
    ~describe:
      "Per-workload speedup over CGL for every evaluated system and thread \
       count, typical cache"
    (fun ctx ->
      List.map
        (fun threads ->
          let rows =
            List.map
              (fun w ->
                w.Workload.name
                :: List.map
                     (fun sysconf ->
                       Report.f2
                         (speedup_vs_cgl ctx ~sysconf ~workload:w ~threads ()))
                     fig7_systems)
              Suite.all
          in
          Report.table
            ~title:
              (Printf.sprintf "Fig 7: speedup over CGL, %d threads" threads)
            ~headers:
              ("workload"
              :: List.map (fun s -> s.Sysconf.name) fig7_systems)
            rows)
        ctx.threads)

(* --- Fig 8: recovery commit rates ------------------------------------- *)

let fig8_systems =
  [
    Sysconf.baseline;
    Sysconf.lockiller_rai;
    Sysconf.lockiller_rri;
    Sysconf.lockiller_rwi;
  ]

let fig8 =
  experiment ~id:"fig8" ~artefact:"Fig 8"
    ~describe:
      "Average transaction commit rate of the recovery-equipped systems \
       across thread counts"
    (fun ctx ->
      let avg_rate sysconf threads =
        Metrics.mean
          (List.map
             (fun w ->
               (result ctx ~sysconf ~workload:w ~threads ()).Runner
                 .commit_rate)
             Suite.all)
      in
      let rows =
        List.map
          (fun threads ->
            string_of_int threads
            :: List.map
                 (fun s -> Report.pct (avg_rate s threads))
                 fig8_systems)
          ctx.threads
      in
      let base_avg =
        Metrics.mean
          (List.map (fun t -> avg_rate Sysconf.baseline t) ctx.threads)
      in
      let improvement s =
        let v =
          Metrics.mean (List.map (fun t -> avg_rate s t) ctx.threads)
        in
        if base_avg > 0.0 then v /. base_avg else 0.0
      in
      [
        Report.table
          ~title:"Fig 8: average transaction commit rate (recovery systems)"
          ~headers:
            ("threads" :: List.map (fun s -> s.Sysconf.name) fig8_systems)
          ~notes:
            [
              Printf.sprintf
                "Commit-rate improvement over Baseline: RAI %.2fx, RRI \
                 %.2fx, RWI %.2fx (paper: 1.40x, 1.69x, 1.63x)."
                (improvement Sysconf.lockiller_rai)
                (improvement Sysconf.lockiller_rri)
                (improvement Sysconf.lockiller_rwi);
            ]
          rows;
      ])

(* --- Breakdown figures (9 and 11) ------------------------------------- *)

let breakdown_table ctx ~title ~threads systems =
  let cats = Accounting.categories in
  let rows =
    List.concat_map
      (fun w ->
        List.map
          (fun sysconf ->
            let r = result ctx ~sysconf ~workload:w ~threads () in
            let total =
              List.fold_left (fun acc (_, n) -> acc + n) 0 r.Runner.breakdown
            in
            let cell cat =
              let n = List.assoc cat r.Runner.breakdown in
              if total = 0 then "0.0%"
              else Report.pct (float_of_int n /. float_of_int total)
            in
            [ w.Workload.name; r.Runner.system ]
            @ List.map cell cats
            @ [ Report.pct r.Runner.commit_rate ])
          systems)
      Suite.all
  in
  Report.table ~title
    ~headers:
      ([ "workload"; "system" ]
      @ List.map Accounting.label cats
      @ [ "commit rate" ])
    rows

let fig9_systems = [ Sysconf.baseline; Sysconf.lockiller_rwi; Sysconf.lockiller_rwil ]

let fig9 =
  experiment ~id:"fig9" ~artefact:"Fig 9"
    ~describe:
      "Execution-time breakdown and commit rate at the maximum thread count \
       (HTMLock benefit)"
    (fun ctx ->
      let threads = List.fold_left max 2 ctx.threads in
      [
        breakdown_table ctx
          ~title:
            (Printf.sprintf
               "Fig 9: execution-time breakdown and commit rate, %d threads"
               threads)
          ~threads fig9_systems;
      ])

let fig11_systems =
  [ Sysconf.baseline; Sysconf.lockiller_rwil; Sysconf.lockiller ]

let fig11 =
  experiment ~id:"fig11" ~artefact:"Fig 11"
    ~describe:
      "Execution-time breakdown and commit rate at 2 threads, including the \
       switchLock category"
    (fun ctx ->
      [
        breakdown_table ctx
          ~title:
            "Fig 11: execution-time breakdown and commit rate, 2 threads \
             (switchingMode)"
          ~threads:2 fig11_systems;
      ])

(* --- Fig 10: abort reasons -------------------------------------------- *)

let fig10 =
  experiment ~id:"fig10" ~artefact:"Fig 10"
    ~describe:"Abort-reason percentages at 2 threads"
    (fun ctx ->
      let rows =
        List.concat_map
          (fun w ->
            List.map
              (fun sysconf ->
                let r = result ctx ~sysconf ~workload:w ~threads:2 () in
                [ w.Workload.name; r.Runner.system; string_of_int r.Runner.aborts ]
                @ List.map
                    (fun reason ->
                      Report.pct (Runner.abort_fraction r reason))
                    Reason.all)
              fig11_systems)
          Suite.all
      in
      [
        Report.table
          ~title:"Fig 10: abort reasons, 2 threads"
          ~headers:
            ([ "workload"; "system"; "aborts" ]
            @ List.map Reason.label Reason.all)
          ~notes:
            [
              "HTMLock eliminates mutex aborts; switchingMode shrinks the \
               'of' column.";
            ]
          rows;
      ])

(* --- Fig 12: average speedups ----------------------------------------- *)

let fig12 =
  experiment ~id:"fig12" ~artefact:"Fig 12"
    ~describe:
      "Average (geometric-mean) speedup over CGL of every system per thread \
       count"
    (fun ctx ->
      let rows =
        List.map
          (fun threads ->
            string_of_int threads
            :: List.map
                 (fun sysconf ->
                   Report.f2
                     (Metrics.geomean
                        (List.map
                           (fun w ->
                             speedup_vs_cgl ctx ~sysconf ~workload:w ~threads
                               ())
                           Suite.all)))
                 fig7_systems)
          ctx.threads
      in
      [
        Report.table
          ~title:"Fig 12: average speedup over CGL (geomean across workloads)"
          ~headers:
            ("threads" :: List.map (fun s -> s.Sysconf.name) fig7_systems)
          rows;
      ])

(* --- Fig 13: cache-size sensitivity ----------------------------------- *)

let fig13_systems = [ Sysconf.baseline; Sysconf.losa_safu; Sysconf.lockiller ]

let fig13 =
  experiment ~id:"fig13" ~artefact:"Fig 13"
    ~describe:
      "Average speedup over CGL under the small (8KB L1 / 1MB LLC) and large \
       (128KB L1 / 32MB LLC) cache configurations"
    (fun ctx ->
      List.map
        (fun cache ->
          let rows =
            List.map
              (fun threads ->
                string_of_int threads
                :: List.map
                     (fun sysconf ->
                       Report.f2
                         (Metrics.geomean
                            (List.map
                               (fun w ->
                                 speedup_vs_cgl ctx ~cache ~sysconf
                                   ~workload:w ~threads ())
                               Suite.all)))
                     fig13_systems)
              ctx.threads
          in
          Report.table
            ~title:
              (Printf.sprintf "Fig 13: average speedup over CGL, %s cache"
                 (Config.cache_profile_name cache))
            ~headers:
              ("threads" :: List.map (fun s -> s.Sysconf.name) fig13_systems)
            rows)
        [ Config.Small; Config.Large ])

(* --- Headline claims --------------------------------------------------- *)

let headline =
  experiment ~id:"headline" ~artefact:"Abstract / Section IV"
    ~describe:
      "Average speedup of LockillerTM vs best-effort HTM and LosaTM-SAFU, \
       plus the extreme-case (8KB L1, max threads, high contention) maxima"
    (fun ctx ->
      let rel ~cache ~of_ ~vs ~workloads ~threads =
        List.map
          (fun w ->
            let a = result ctx ~cache ~sysconf:of_ ~workload:w ~threads () in
            let b = result ctx ~cache ~sysconf:vs ~workload:w ~threads () in
            Metrics.speedup ~baseline_cycles:b.Runner.cycles
              ~cycles:a.Runner.cycles)
          workloads
      in
      let typical_avg vs =
        Metrics.geomean
          (List.concat_map
             (fun threads ->
               rel ~cache:Config.Typical ~of_:Sysconf.lockiller ~vs
                 ~workloads:Suite.all ~threads)
             ctx.threads)
      in
      let max_threads = List.fold_left max 2 ctx.threads in
      let extreme_max vs =
        match
          Metrics.max_of
            (rel ~cache:Config.Small ~of_:Sysconf.lockiller ~vs
               ~workloads:Suite.high_contention ~threads:max_threads)
        with
        | Some v -> v
        | None -> assert false (* high_contention is never empty *)
      in
      [
        Report.table ~title:"Headline claims"
          ~headers:[ "claim"; "measured"; "paper" ]
          [
            [
              "avg speedup vs best-effort HTM (typical cache)";
              Report.f2 (typical_avg Sysconf.baseline);
              "1.86x";
            ];
            [
              "avg speedup vs LosaTM-SAFU (typical cache)";
              Report.f2 (typical_avg Sysconf.losa_safu);
              "1.57x";
            ];
            [
              Printf.sprintf
                "max speedup vs best-effort HTM (8KB L1, %d threads, \
                 high-contention)"
                max_threads;
              Report.f2 (extreme_max Sysconf.baseline);
              "7.79x";
            ];
            [
              Printf.sprintf
                "max speedup vs LosaTM-SAFU (8KB L1, %d threads, \
                 high-contention)"
                max_threads;
              Report.f2 (extreme_max Sysconf.losa_safu);
              "6.73x";
            ];
          ];
      ])

(* --- Ablation ---------------------------------------------------------- *)

let ablation =
  experiment ~id:"ablation" ~artefact:"Design-choice ablations (DESIGN.md)"
    ~describe:
      "Requester policy (RAI/RRI/RWI), priority scheme (none / progression / \
       insts) and HTMLock/switching increments, as geomean speedup over CGL"
    (fun ctx ->
      let systems =
        [
          ("reject: self-abort (RAI)", Sysconf.lockiller_rai);
          ("reject: retry-later (RRI)", Sysconf.lockiller_rri);
          ("reject: wait-wakeup (RWI)", Sysconf.lockiller_rwi);
          ("priority: none (RWL, +HTMLock)", Sysconf.lockiller_rwl);
          ("priority: static (RWS)", Sysconf.lockiller_rws);
          ("priority: progression (LosaTM-SAFU)", Sysconf.losa_safu);
          ("+HTMLock (RWIL)", Sysconf.lockiller_rwil);
          ("+switchingMode (LockillerTM)", Sysconf.lockiller);
        ]
      in
      let threads = List.fold_left max 2 ctx.threads in
      let rows =
        List.map
          (fun (label, sysconf) ->
            [
              label;
              Report.f2
                (Metrics.geomean
                   (List.map
                      (fun w ->
                        speedup_vs_cgl ctx ~sysconf ~workload:w ~threads ())
                      Suite.all));
            ])
          systems
      in
      (* The locking baseline itself: how much of the vs-CGL speedup
         is TTAS convoying that a fair ticket lock removes. *)
      let lock_rows =
        List.map
          (fun w ->
            let ttas =
              result ctx ~sysconf:Sysconf.cgl ~workload:w ~threads ()
            in
            let ticket =
              result ctx ~sysconf:Sysconf.cgl_ticket ~workload:w ~threads ()
            in
            [
              w.Workload.name;
              Report.f2
                (Metrics.speedup ~baseline_cycles:ttas.Runner.cycles
                   ~cycles:ticket.Runner.cycles);
            ])
          Suite.all
      in
      [
        Report.table
          ~title:
            (Printf.sprintf
               "Ablation: geomean speedup over CGL, %d threads" threads)
          ~headers:[ "configuration"; "speedup" ]
          rows;
        Report.table
          ~title:
            (Printf.sprintf
               "Ablation: ticket lock vs TTAS for the CGL baseline, %d \
                threads"
               threads)
          ~headers:[ "workload"; "CGL-Ticket speedup over CGL" ]
          ~notes:
            [
              "Quantifies how much of the HTM-vs-CGL speedups come from \
               TTAS handoff convoying.";
            ]
          lock_rows;
      ])

(* --- Transaction-size sensitivity (paper future work) ------------------ *)

(* Multiplier [m] is in quarter units (m/4 is the footprint factor);
   transactions per thread shrink inversely so total work stays
   roughly constant. *)
let txsize_profile m =
  match
    Lk_stamp.Suite.realise
      (Lk_stamp.Suite.spec ~tag:true
         ~rw_scale:(float_of_int m /. 4.0)
         ~txs_scale:(4.0 /. float_of_int m)
         "vacation")
  with
  | Ok p -> p
  | Error msg -> invalid_arg ("Experiments.txsize: " ^ msg)

let txsize =
  experiment ~id:"txsize" ~artefact:"Section IV-A (future work)"
    ~describe:
      "Sensitivity to transaction size: vacation-style workload with the \
       read/write sets scaled 0.5x-8x; larger sets push best-effort HTM \
       into capacity overflow where switchingMode takes over"
    (fun ctx ->
      let threads = List.fold_left max 2 ctx.threads in
      let systems =
        [ Sysconf.baseline; Sysconf.lockiller_rwil; Sysconf.lockiller ]
      in
      let rows =
        List.map
          (fun m ->
            let workload = txsize_profile m in
            Printf.sprintf "%.2gx" (float_of_int m /. 4.0)
            :: List.map
                 (fun sysconf ->
                   Report.f2
                     (speedup_vs_cgl ctx ~sysconf ~workload ~threads ()))
                 systems)
          [ 2; 4; 8; 16; 32 ]
      in
      [
        Report.table
          ~title:
            (Printf.sprintf
               "Transaction-size sensitivity (speedup over CGL, %d threads)"
               threads)
          ~headers:
            ("tx size" :: List.map (fun s -> s.Sysconf.name) systems)
          rows;
      ])

(* --- NoC contention ablation -------------------------------------------- *)

let noc =
  experiment ~id:"noc" ~artefact:"Model-fidelity ablation (DESIGN.md)"
    ~describe:
      "Effect of modelling per-link NoC occupancy (wormhole contention) on the reported cycles — quantifies the contention-free default"
    (fun ctx ->
      let threads = List.fold_left max 2 ctx.threads in
      let rows =
        List.concat_map
          (fun w ->
            List.map
              (fun sysconf ->
                let cycles noc_contention =
                  (run_job ctx
                     (job ctx
                        ~machine:
                          (Config.machine ~cores:ctx.cores ~noc_contention ())
                        ~sysconf ~workload:w ~threads ()))
                    .Runner.cycles
                in
                let off = cycles false and on_ = cycles true in
                [
                  w.Workload.name;
                  sysconf.Sysconf.name;
                  string_of_int off;
                  string_of_int on_;
                  Report.f2 (float_of_int on_ /. float_of_int off);
                ])
              [ Sysconf.cgl; Sysconf.baseline; Sysconf.lockiller ])
          (List.filter
             (fun w ->
               List.mem w.Workload.name [ "intruder"; "vacation+"; "kmeans+" ])
             Suite.all)
      in
      [
        Report.table
          ~title:
            (Printf.sprintf
               "NoC contention model on/off (%d threads, high-contention workloads)"
               threads)
          ~headers:
            [ "workload"; "system"; "cycles (off)"; "cycles (on)"; "ratio" ]
          ~notes:
            [
              "Ratios near 1.0 justify the contention-free default: line-level serialisation at the directory dominates link occupancy.";
            ]
          rows;
      ])

(* --- Topology generality ------------------------------------------------ *)

let topology_workload =
  match Suite.find "vacation+" with Some w -> w | None -> assert false

let topology =
  experiment ~id:"topology" ~artefact:"Section III-A claim"
    ~describe:
      "The recovery framework does not depend on the interconnect topology: run the key systems over mesh, torus, ring and crossbar fabrics"
    (fun ctx ->
      (* The torus wraps each row and column, so it needs 3 tiles a
         side; the ring and the crossbar fit any such machine. *)
      (match Config.mesh_shape ctx.cores with
      | rows, cols when rows < 3 ->
        invalid_arg
          (Printf.sprintf
             "experiment topology: %d cores form a %dx%d grid, but the \
              torus needs at least 3 tiles a side (try 9, 12 or 16 cores)"
             ctx.cores rows cols)
      | _ -> ());
      let threads = List.fold_left max 2 ctx.threads in
      let rows =
        List.map
          (fun kind ->
            let cycles sysconf =
              (run_job ctx
                 (job ctx
                    ~machine:(Config.machine ~cores:ctx.cores ~topology:kind ())
                    ~sysconf ~workload:topology_workload ~threads ()))
                .Runner.cycles
            in
            let cgl = cycles Sysconf.cgl in
            Lk_mesh.Topology.kind_name kind
            :: List.map
                 (fun sysconf ->
                   if sysconf.Sysconf.name = "CGL" then string_of_int cgl
                   else
                     Report.f2
                       (Metrics.speedup ~baseline_cycles:cgl
                          ~cycles:(cycles sysconf)))
                 [ Sysconf.cgl; Sysconf.baseline; Sysconf.lockiller ])
          Lk_mesh.Topology.[ Mesh; Torus; Ring; Crossbar ]
      in
      [
        Report.table
          ~title:
            (Printf.sprintf
               "Topology generality: vacation+, %d threads (CGL cycles; others as speedup over CGL)"
               threads)
          ~headers:[ "topology"; "CGL"; "Baseline"; "LockillerTM" ]
          ~notes:
            [
              "Every correctness net (invariants, conservation, serializability oracle) runs on all four fabrics.";
            ]
          rows;
      ])

(* --- Seed variance -------------------------------------------------------- *)

let variance =
  experiment ~id:"variance" ~artefact:"Statistical robustness (extension)"
    ~describe:
      "Run the headline comparison over several workload-generation seeds and report the spread of the average speedup"
    (fun ctx ->
      let threads = List.fold_left max 2 ctx.threads in
      let seeds = [ 1; 2; 3; 4; 5 ] in
      let avg_speedup sysconf seed =
        Metrics.geomean
          (List.map
             (fun w ->
               let cgl =
                 run_job ctx
                   (job ctx ~seed ~sysconf:Sysconf.cgl ~workload:w ~threads ())
               in
               let r =
                 run_job ctx (job ctx ~seed ~sysconf ~workload:w ~threads ())
               in
               Metrics.speedup ~baseline_cycles:cgl.Runner.cycles
                 ~cycles:r.Runner.cycles)
             Suite.all)
      in
      let rows =
        List.map
          (fun sysconf ->
            let samples = List.map (avg_speedup sysconf) seeds in
            [
              sysconf.Sysconf.name;
              Report.f2 (Metrics.mean samples);
              Report.f2 (Metrics.stddev samples);
              (match Metrics.min_of samples with
              | Some v -> Report.f2 v
              | None -> "-");
              (match Metrics.max_of samples with
              | Some v -> Report.f2 v
              | None -> "-");
            ])
          [ Sysconf.baseline; Sysconf.lockiller_rwi; Sysconf.lockiller ]
      in
      [
        Report.table
          ~title:
            (Printf.sprintf
               "Seed variance of the average speedup over CGL (%d threads, %d seeds)"
               threads (List.length seeds))
          ~headers:[ "system"; "mean"; "stddev"; "min"; "max" ]
          ~notes:
            [
              "The qualitative ordering must survive any seed; a small stddev shows it is not an artefact of one workload draw.";
            ]
          rows;
      ])

(* --- Thread placement ----------------------------------------------------- *)

let placement =
  experiment ~id:"placement" ~artefact:"Thread binding (extension)"
    ~describe:
      "Compact vs spread thread placement on the 32-tile fabric at partial occupancy: placement changes core-to-core wake-up and forwarding distances"
    (fun ctx ->
      let threads =
        min (List.fold_left max 2 ctx.threads) (max 2 (ctx.cores / 4))
      in
      let rows =
        List.concat_map
          (fun w ->
            List.map
              (fun sysconf ->
                let cycles placement =
                  (run_job ctx
                     (job ctx ~placement ~sysconf ~workload:w ~threads ()))
                    .Runner.cycles
                in
                let compact = cycles Runner.Compact in
                let spread = cycles Runner.Spread in
                [
                  w.Workload.name;
                  sysconf.Sysconf.name;
                  string_of_int compact;
                  string_of_int spread;
                  Report.f2 (float_of_int spread /. float_of_int compact);
                ])
              [ Sysconf.cgl; Sysconf.baseline; Sysconf.lockiller ])
          (List.filter
             (fun w -> List.mem w.Workload.name [ "intruder"; "vacation+" ])
             Suite.all)
      in
      [
        Report.table
          ~title:
            (Printf.sprintf
               "Thread placement: compact vs spread (%d threads on %d tiles)"
               threads ctx.cores)
          ~headers:
            [ "workload"; "system"; "compact"; "spread"; "spread/compact" ]
          rows;
      ])

(* --- Protocol-fidelity ablation ------------------------------------------- *)

let protocol_knobs =
  experiment ~id:"protocol" ~artefact:"Coherence-protocol ablation (extension)"
    ~describe:
      "MESI vs MSI (no Exclusive state) and full-map vs limited-pointer directory (4 pointers, broadcast on overflow)"
    (fun ctx ->
      let threads = List.fold_left max 2 ctx.threads in
      let rows =
        List.concat_map
          (fun w ->
            let base = ref 0 in
            List.map
              (fun (label, exclusive_state, dir_pointers) ->
                let r =
                  run_job ctx
                    (job ctx
                       ~machine:
                         (Config.machine ~cores:ctx.cores ~exclusive_state
                            ~dir_pointers ())
                       ~sysconf:Sysconf.lockiller ~workload:w ~threads ())
                in
                if !base = 0 then base := r.Runner.cycles;
                [
                  w.Workload.name;
                  label;
                  string_of_int r.Runner.cycles;
                  Report.f2
                    (float_of_int r.Runner.cycles /. float_of_int !base);
                ])
              [
                ("MESI, full-map", true, None);
                ("MSI, full-map", false, None);
                ("MESI, 4-pointer", true, Some 4);
              ])
          (List.filter
             (fun w ->
               List.mem w.Workload.name [ "genome"; "vacation"; "kmeans+" ])
             Suite.all)
      in
      [
        Report.table
          ~title:
            (Printf.sprintf
               "Coherence ablation under LockillerTM (%d threads; ratio vs MESI/full-map)"
               threads)
          ~headers:[ "workload"; "protocol"; "cycles"; "ratio" ]
          rows;
      ])

(* --- Tx-latency percentiles ------------------------------------------- *)

let latency_systems = [ Sysconf.baseline; Sysconf.lockiller ]

let latency =
  experiment ~id:"latency" ~artefact:"Tx-latency percentiles (extension)"
    ~describe:
      "Critical-section latency p50/p95/p99 per workload at 2 threads, from \
       the always-on log-linear histograms"
    (fun ctx ->
      let row w =
        w.Workload.name
        :: List.concat_map
             (fun s ->
               let r = result ctx ~sysconf:s ~workload:w ~threads:2 () in
               [
                 string_of_int r.Runner.tx_latency_p50;
                 string_of_int r.Runner.tx_latency_p95;
                 string_of_int r.Runner.tx_latency_p99;
               ])
             latency_systems
      in
      [
        Report.table
          ~title:
            "Critical-section latency percentiles (cycles), 2 threads"
          ~headers:
            ("workload"
            :: List.concat_map
                 (fun s ->
                   let n = s.Sysconf.name in
                   [ n ^ " p50"; n ^ " p95"; n ^ " p99" ])
                 latency_systems)
          ~notes:
            [
              "First xbegin to commit, including retries and the fallback \
               path; tail/median >> 1 flags convoying.";
            ]
          (List.map row Suite.all);
      ])

(* --- HyTM instrumentation-cost sweep ------------------------------------ *)

(* Counter-style profiles holding the footprint fixed while a rising
   fraction of accesses aims at a shrinking hot set — the contention
   axis of the instrumentation sweep. *)
let hytm_profile ~name ~hot_lines ~hot_fraction =
  {
    Workload.name;
    txs_per_thread = 48;
    reads_per_tx = (3, 6);
    writes_per_tx = (1, 3);
    hot_lines;
    hot_fraction;
    zipf_skew = 0.0;
    shared_lines = 256;
    private_lines = 64;
    compute_per_op = 2;
    pre_compute = (10, 20);
    post_compute = (5, 10);
    fault_prob = 0.0;
    barrier_every = None;
  }

let hytm_levels =
  [
    ("low", hytm_profile ~name:"hytm-low" ~hot_lines:64 ~hot_fraction:0.05);
    ("medium", hytm_profile ~name:"hytm-med" ~hot_lines:8 ~hot_fraction:0.4);
    ("high", hytm_profile ~name:"hytm-high" ~hot_lines:2 ~hot_fraction:0.9);
  ]

let hytm_hw_systems =
  [ Sysconf.hytm_gv1; Sysconf.hytm_gv5; Sysconf.hytm_rc; Sysconf.hytm_md ]

let hytm =
  experiment ~id:"hytm" ~artefact:"HyTM instrumentation-cost sweep (extension)"
    ~describe:
      "Hybrid-TM comparators (TL2 software fallback, GV1/GV5 clocks, three \
       hardware instrumentation schemes) against pure software across three \
       contention levels — reproduces the claim that instrumentation erodes \
       the hardware advantage as contention rises"
    (fun ctx ->
      let threads = List.fold_left max 2 ctx.threads in
      let speed_rows =
        List.map
          (fun (level, workload) ->
            let sw =
              result ctx ~sysconf:Sysconf.sw_tl2 ~workload ~threads ()
            in
            level
            :: List.map
                 (fun sysconf ->
                   let r = result ctx ~sysconf ~workload ~threads () in
                   Report.f2
                     (Metrics.speedup ~baseline_cycles:sw.Runner.cycles
                        ~cycles:r.Runner.cycles))
                 hytm_hw_systems)
          hytm_levels
      in
      let detail_rows =
        List.concat_map
          (fun (level, workload) ->
            List.map
              (fun sysconf ->
                let r = result ctx ~sysconf ~workload ~threads () in
                [
                  level;
                  r.Runner.system;
                  string_of_int r.Runner.cycles;
                  string_of_int r.Runner.htm_commits;
                  string_of_int r.Runner.sw_commits;
                  string_of_int
                    (List.assoc Reason.Validation r.Runner.abort_mix);
                  string_of_int r.Runner.clock_advances;
                  Report.pct r.Runner.commit_rate;
                ])
              (Sysconf.sw_tl2 :: hytm_hw_systems))
          hytm_levels
      in
      [
        Report.table
          ~title:
            (Printf.sprintf
               "HyTM sweep: speedup over SW-TL2, %d threads" threads)
          ~headers:
            ("contention"
            :: List.map (fun s -> s.Sysconf.name) hytm_hw_systems)
          ~notes:
            [
              "> 1.00 means the hybrid beats pure software; the \
               instrumented schemes' advantage shrinks (or inverts) as \
               contention rises — the HyTM erosion claim.";
            ]
          speed_rows;
        Report.table
          ~title:
            (Printf.sprintf
               "HyTM sweep: path and clock detail, %d threads" threads)
          ~headers:
            [
              "contention";
              "system";
              "cycles";
              "htm commits";
              "sw commits";
              "valid aborts";
              "clock advances";
              "commit rate";
            ]
          detail_rows;
      ])

(* --- Wasted-work accounting (causal profiler) --------------------------- *)

let wasted_systems = [ Sysconf.baseline; Sysconf.losa_safu; Sysconf.lockiller ]

let wasted_workloads =
  List.filter
    (fun w ->
      List.mem w.Workload.name [ "genome"; "intruder"; "kmeans+"; "vacation" ])
    Suite.all

(* Moderate contention, deliberately: at the saturated end every
   LosaTM-SAFU attempt dies on its first conflict and the system
   collapses onto the fallback lock — it stops speculating, so its
   wasted share falls while its total time balloons, and a wasted-work
   comparison degenerates into comparing serialization. The claim the
   paper makes ("progression priority converts wasted work into
   committed work") is about the regime where both systems actually
   speculate. *)
let wasted_threads ctx = min 8 (List.fold_left max 2 ctx.threads)

(* Run with the causal profiler streaming through the ledger tap. The
   [on_runtime] hook is a closure the result cache cannot key on, so
   these runs bypass the memo, the cache and the plan: every render
   simulates them afresh, one after another, and a recording pass sees
   only placeholders. Attaching the profiler changes no simulated
   outcome — the result is byte-identical to a plain run. *)
let wasted_profiled ctx ~sysconf ~source ~threads =
  if Option.is_some ctx.recorder then
    (Runner.zero_result, Profile.create ~cores:ctx.cores)
  else
    let prof = ref None in
    let options =
      {
        Runner.default_options with
        seed = ctx.seed;
        scale = ctx.scale;
        machine = Config.machine ~cores:ctx.cores ();
        on_runtime =
          (fun rt ->
            let l = Lk_lockiller.Runtime.enable_ledger ~capacity:1024 rt in
            let p = Profile.create ~cores:ctx.cores in
            Profile.attach p l;
            prof := Some p);
      }
    in
    let r = Runner.run_source ~options ~sysconf ~source ~threads () in
    ctx.simulated <- ctx.simulated + 1;
    match !prof with
    | Some p -> (r, p)
    | None -> assert false (* on_runtime always fires: runs are uncached *)

(* A moderately contended open-loop arrival stream for the replay leg:
   steady Poisson arrivals (no diurnal swing or bursts, for a clean
   wasted-work signal) whose footprints land on the vacation body,
   regenerated deterministically from the context seed for every
   system. The arrival rate is pitched at the same regime as the
   closed-loop leg — heavy enough that attempts conflict, light enough
   that LosaTM-SAFU still speculates rather than convoying on the
   fallback lock. *)
let wasted_trace_records ctx =
  let profile =
    {
      Lk_trace.Gen.default with
      Lk_trace.Gen.users = 100;
      think_time = 8_000.0;
      duration = max 5_000 (int_of_float (40_000.0 *. ctx.scale));
      diurnal_amp = 0.0;
      burst_every = 0;
      reads_per_tx = (4, 8);
      writes_per_tx = (2, 4);
      cores = ctx.cores;
      affinity = Lk_trace.Gen.Any;
    }
  in
  let acc = ref [] in
  (match
     Lk_trace.Gen.generate profile ~seed:ctx.seed ~emit:(fun r ->
         acc := r :: !acc)
   with
  | Ok _ -> ()
  | Error msg -> failwith ("Experiments.wasted: trace generation: " ^ msg));
  Array.of_list (List.rev !acc)

let wasted_open_loop ~body records =
  let i = ref 0 in
  {
    Workload_source.trace_name = "gen-contended";
    next =
      (fun () ->
        if !i >= Array.length records then Ok None
        else begin
          let r = records.(!i) in
          incr i;
          Ok (Some r)
        end);
    body;
  }

let wasted =
  experiment ~id:"wasted" ~artefact:"Wasted-work ratio (Fig 10 companion)"
    ~describe:
      "Causal-profiler wasted-cycle accounting: Baseline vs LosaTM-SAFU vs \
       LockillerTM on the contended STAMP profiles, closed-loop and \
       open-loop replay — progression priority converts wasted aborted \
       work into committed work"
    (fun ctx ->
      let threads = wasted_threads ctx in
      let fraction r =
        float_of_int r.Runner.wasted_cycles
        /. float_of_int (threads * max 1 r.Runner.cycles)
      in
      let closed_rows =
        List.concat_map
          (fun w ->
            List.map
              (fun sysconf ->
                let r, p =
                  wasted_profiled ctx ~sysconf
                    ~source:(Workload_source.Workload w) ~threads
                in
                [
                  w.Workload.name;
                  sysconf.Sysconf.name;
                  string_of_int r.Runner.cycles;
                  string_of_int r.Runner.aborts;
                  Printf.sprintf "%d = %d + %d" (Profile.total_aborts p)
                    (Profile.attributed p)
                    (Profile.environmental p);
                  string_of_int r.Runner.wasted_cycles;
                  Report.pct (fraction r);
                ])
              wasted_systems)
          wasted_workloads
      in
      let records = wasted_trace_records ctx in
      let body =
        match Suite.find "vacation" with
        | Some w -> w
        | None -> assert false
      in
      let replay_rows =
        List.map
          (fun sysconf ->
            let r, p =
              wasted_profiled ctx ~sysconf
                ~source:
                  (Workload_source.Replay (wasted_open_loop ~body records))
                ~threads
            in
            let backlog =
              match r.Runner.open_loop with
              | Some o -> string_of_int o.Runner.max_backlog
              | None -> "-"
            in
            [
              sysconf.Sysconf.name;
              string_of_int r.Runner.cycles;
              string_of_int r.Runner.aborts;
              Printf.sprintf "%d = %d + %d" (Profile.total_aborts p)
                (Profile.attributed p)
                (Profile.environmental p);
              string_of_int r.Runner.wasted_cycles;
              Report.pct (fraction r);
              backlog;
            ])
          wasted_systems
      in
      [
        Report.table
          ~title:
            (Printf.sprintf
               "Wasted work, closed loop (%d threads): cycles inside \
                aborted attempts as a share of total core-cycles"
               threads)
          ~headers:
            [
              "workload";
              "system";
              "cycles";
              "aborts";
              "edges (attr + env)";
              "wasted";
              "wasted %";
            ]
          ~notes:
            [
              "wasted % = wasted cycles / (threads * run cycles); every \
               abort contributes exactly one attribution edge, so the \
               edge total equals the abort count.";
              "Wasted counts speculative work only: cycles a core spent \
               deliberately stalled (reject back-off, parked on a \
               wake-up list) are excluded from the victim's age.";
              "The paper's direction: LockillerTM's wasted share sits \
               below LosaTM-SAFU's on the contended profiles — \
               progression priority stops doomed attempts earlier.";
              "The comparison is pinned at moderate contention (8 \
               threads): past saturation LosaTM-SAFU collapses onto the \
               fallback lock and stops speculating, so its waste moves \
               into serialization this metric deliberately ignores.";
            ]
          closed_rows;
        Report.table
          ~title:
            (Printf.sprintf
               "Wasted work, open-loop replay (%d stream cores, %d \
                arrivals, vacation body)"
               threads (Array.length records))
          ~headers:
            [
              "system";
              "cycles";
              "aborts";
              "edges (attr + env)";
              "wasted";
              "wasted %";
              "max backlog";
            ]
          ~notes:
            [
              "Arrivals come on their own clock, so wasted work here \
               also delays every queued successor — the open-loop view \
               of the same ordering.";
            ]
          replay_rows;
      ])

let all =
  [
    table1;
    table2;
    fig1;
    fig7;
    fig8;
    fig9;
    fig10;
    fig11;
    fig12;
    fig13;
    headline;
    ablation;
    txsize;
    noc;
    topology;
    placement;
    protocol_knobs;
    variance;
    latency;
    hytm;
    wasted;
  ]

let find id =
  let needle = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.id = needle) all
