module Engine = Lk_engine
module Mesh = Lk_mesh
module Coherence = Lk_coherence
module Htm = Lk_htm
module Mechanisms = Lk_lockiller
module Cpu = Lk_cpu
module Stamp = Lk_stamp
module Trace = Lk_trace
module Sim = Lk_sim
module Check = Lk_check

let version = "1.0.0"

let systems =
  List.map (fun s -> s.Lk_lockiller.Sysconf.name) Lk_lockiller.Sysconf.all

let hybrid_systems =
  List.map (fun s -> s.Lk_lockiller.Sysconf.name) Lk_lockiller.Sysconf.hybrid

let workloads = Lk_stamp.Suite.names

let lookup ~system ~workload =
  Result.bind (Lk_lockiller.Sysconf.lookup system) (fun sysconf ->
      Result.map (fun profile -> (sysconf, profile))
        (Lk_stamp.Suite.lookup workload))

let options ?(seed = 1) ?(scale = 1.0) ?(cache = Lk_sim.Config.Typical)
    ?(cores = 32) () =
  {
    Lk_sim.Runner.default_options with
    seed;
    scale;
    machine = Lk_sim.Config.machine ~cache ~cores ();
  }

let guard f =
  match f () with
  | v -> Ok v
  | exception (Invalid_argument msg | Failure msg) -> Error msg

let run ?seed ?scale ?cache ?cores ~system ~workload ~threads () =
  Result.bind (lookup ~system ~workload) (fun (sysconf, profile) ->
      guard (fun () ->
          Lk_sim.Runner.run
            ~options:(options ?seed ?scale ?cache ?cores ())
            ~sysconf ~workload:profile ~threads ()))

let run_text ?cache ?cores ~system ~program () =
  Result.bind (Lk_lockiller.Sysconf.lookup system) (fun sysconf ->
      Result.bind (Lk_cpu.Program.of_text program) (fun program ->
          guard (fun () ->
              Lk_sim.Runner.run_program
                ~options:(options ?cache ?cores ())
                ~sysconf ~program ())))
