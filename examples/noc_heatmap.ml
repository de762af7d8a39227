(* Where does the coherence traffic go? Run one contended workload on
   the paper's 4x8 mesh and render per-tile traffic as an ASCII heat
   map, plus the hottest links. The fallback lock lives on tile 0 and
   hot records are interleaved low, so the left edge glows — which is
   also why the Spread thread placement (see the `placement` experiment)
   helps a little.

     dune exec examples/noc_heatmap.exe *)

module Topology = Lockiller.Mesh.Topology
module Network = Lockiller.Mesh.Network
module Runner = Lockiller.Sim.Runner
module Config = Lockiller.Sim.Config
module Sysconf = Lockiller.Mechanisms.Sysconf
module Runtime = Lockiller.Mechanisms.Runtime
module Protocol = Lockiller.Coherence.Protocol

let () =
  let workload = Option.get (Lockiller.Stamp.Suite.find "intruder") in
  let net = ref None in
  let r =
    Runner.run
      ~options:
        {
          Runner.default_options with
          on_runtime =
            (fun rt ->
              let n = Protocol.network (Runtime.protocol rt) in
              Network.charge_links n;
              net := Some n);
        }
      ~sysconf:Sysconf.lockiller ~workload ~threads:32 ()
  in
  let net = Option.get !net in
  let topo = Network.topology net in
  let rows = Topology.rows topo and cols = Topology.cols topo in
  (* per-tile traffic = flits on its outgoing links *)
  let tile_flits = Array.make (Topology.tiles topo) 0 in
  List.iter
    (fun (link, flits) ->
      let t = link.Topology.from_tile in
      tile_flits.(t) <- tile_flits.(t) + flits)
    (Network.link_utilisation net);
  let max_flits = Array.fold_left max 1 tile_flits in
  let shades = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |] in
  Printf.printf
    "intruder / LockillerTM / 32 threads: %d cycles, %d messages, %d flits\n\n"
    r.Runner.cycles r.Runner.network_messages r.Runner.network_flits;
  Printf.printf "Per-tile outgoing flits (@ = hottest):\n\n";
  for row = 0 to rows - 1 do
    Printf.printf "  ";
    for col = 0 to cols - 1 do
      let t = (row * cols) + col in
      let level = tile_flits.(t) * (Array.length shades - 1) / max_flits in
      Printf.printf " %c%c " shades.(level) shades.(level)
    done;
    print_newline ();
    Printf.printf "  ";
    for col = 0 to cols - 1 do
      let t = (row * cols) + col in
      Printf.printf "%4d" (tile_flits.(t) / 1000)
    done;
    Printf.printf "   (kflits per tile)\n"
  done;
  print_newline ();
  Printf.printf "Hottest directed links:\n";
  List.iteri
    (fun i (link, flits) ->
      if i < 8 then
        Printf.printf "  tile %2d -> tile %2d : %7d flits\n"
          link.Topology.from_tile link.Topology.to_tile flits)
    (Network.link_utilisation net);
  print_newline ();
  Printf.printf
    "The home of the fallback lock (tile 0) and the low-numbered home banks\n\
     of the hot records dominate the traffic.\n"
