module Protocol = Lk_coherence.Protocol

type cache_profile = Typical | Small | Large

type t = {
  cores : int;
  rows : int;
  cols : int;
  cache : cache_profile;
  protocol : Protocol.config;
  link_latency : int;
  router_latency : int;
  noc_contention : bool;
  topology : Lk_mesh.Topology.kind;
}

let cache_profile_name = function
  | Typical -> "typical (32KB L1 / 8MB LLC)"
  | Small -> "small (8KB L1 / 1MB LLC)"
  | Large -> "large (128KB L1 / 32MB LLC)"

let cache_profile_id = function
  | Typical -> "typical"
  | Small -> "small"
  | Large -> "large"

let cache_profile_of_id = function
  | "typical" -> Some Typical
  | "small" -> Some Small
  | "large" -> Some Large
  | _ -> None

let max_cores = 1024

(* Nearest-square factorisation: rows is the largest divisor of [n]
   not exceeding sqrt n, cols = n / rows. Reproduces the historical
   table exactly (2->1x2, 4->2x2, 8->2x4, 16->4x4, 32->4x8) and
   extends it to any count up to [max_cores]: every k*k and 2k*k mesh
   has an exact factorisation, primes degrade to a 1xN chain. *)
let mesh_shape n =
  if n < 1 || n > max_cores then
    invalid_arg
      (Printf.sprintf
         "Config.machine: unsupported core count %d (supported: 1-%d)" n
         max_cores);
  let rows = ref 1 in
  let d = ref 1 in
  while !d * !d <= n do
    if n mod !d = 0 then rows := !d;
    incr d
  done;
  (!rows, n / !rows)

let cache_sizes = function
  | Typical -> (32 * 1024, 8 * 1024 * 1024)
  | Small -> (8 * 1024, 1024 * 1024)
  | Large -> (128 * 1024, 32 * 1024 * 1024)

let machine ?(cache = Typical) ?(cores = 32) ?(noc_contention = false)
    ?(topology = Lk_mesh.Topology.Mesh) ?(exclusive_state = true)
    ?(dir_pointers = None) ?(dir_shards = 0) ?(dir_hash = Lk_coherence.Shard.Mod)
    () =
  let rows, cols = mesh_shape cores in
  let l1_size, llc_size = cache_sizes cache in
  {
    cores;
    rows;
    cols;
    cache;
    protocol =
      {
        Protocol.cores;
        l1_size;
        l1_ways = 4;
        l1_hit_latency = 2;
        llc_size;
        llc_ways = 16;
        llc_hit_latency = 12;
        mem_latency = 100;
        exclusive_state;
        dir_pointers;
        dir_shards;
        dir_hash;
      };
    link_latency = 1;
    router_latency = 1;
    noc_contention;
    topology;
  }

let table1 t =
  let p = t.protocol in
  [
    ("Number of Cores", string_of_int t.cores);
    ("Frequency", "2 GHz (1 cycle = 0.5 ns)");
    ("Core Detail", "In-Order, Single-issue");
    ("Cache Line Size", "64 bytes");
    ( "L1 I&D caches",
      Printf.sprintf "Private, %dKB, %d-way, %d-cycle hit latency"
        (p.Protocol.l1_size / 1024) p.Protocol.l1_ways
        p.Protocol.l1_hit_latency );
    ( "L2 cache",
      Printf.sprintf "Shared, unified, %dMB, %d-way, %d-cycle hit latency"
        (p.Protocol.llc_size / 1024 / 1024)
        p.Protocol.llc_ways p.Protocol.llc_hit_latency );
    ("Memory", Printf.sprintf "%d-cycle latency" p.Protocol.mem_latency);
    ("Coherence protocol", "MESI, directory-based");
    ( "Topology and Routing",
      match t.topology with
      | Lk_mesh.Topology.Mesh ->
        Printf.sprintf "2-D mesh (%dx%d), X-Y" t.rows t.cols
      | Lk_mesh.Topology.Torus ->
        Printf.sprintf "2-D torus (%dx%d), X-Y" t.rows t.cols
      | Lk_mesh.Topology.Ring -> Printf.sprintf "ring (%d)" t.cores
      | Lk_mesh.Topology.Crossbar -> Printf.sprintf "crossbar (%d)" t.cores );
    ("Flit size/message size", "16 bytes / 5 flits (data), 1 flit (control)");
    ( "Link latency/bandwidth",
      Printf.sprintf "%d cycle / 1 flit per cycle" t.link_latency );
  ]

let build t =
  let sim = Lk_engine.Sim.create () in
  let topo =
    match t.topology with
    | Lk_mesh.Topology.Mesh ->
      Lk_mesh.Topology.create ~rows:t.rows ~cols:t.cols
    | Lk_mesh.Topology.Torus ->
      Lk_mesh.Topology.create_torus ~rows:t.rows ~cols:t.cols
    | Lk_mesh.Topology.Ring -> Lk_mesh.Topology.create_ring ~tiles:t.cores
    | Lk_mesh.Topology.Crossbar ->
      Lk_mesh.Topology.create_crossbar ~tiles:t.cores
  in
  let net =
    Lk_mesh.Network.create ~link_latency:t.link_latency
      ~router_latency:t.router_latency ~contention:t.noc_contention topo
  in
  let proto = Protocol.create ~sim ~network:net t.protocol in
  (sim, net, proto)

(* Canonical one-line description of every field that changes simulated
   behaviour — the machine component of a cache key. Any new knob added
   to [t] or [Protocol.config] must appear here (bump
   [Cache.schema_version] when the encoding itself changes). *)
let fingerprint t =
  let p = t.protocol in
  Printf.sprintf
    "cores=%d rows=%d cols=%d cache=%s l1=%d/%d/%d llc=%d/%d/%d mem=%d \
     mesi=%b dirptr=%s shards=%d shash=%s link=%d router=%d contention=%b \
     topology=%s"
    t.cores t.rows t.cols (cache_profile_id t.cache) p.Protocol.l1_size
    p.Protocol.l1_ways p.Protocol.l1_hit_latency p.Protocol.llc_size
    p.Protocol.llc_ways p.Protocol.llc_hit_latency p.Protocol.mem_latency
    p.Protocol.exclusive_state
    (match p.Protocol.dir_pointers with
    | None -> "full"
    | Some k -> string_of_int k)
    p.Protocol.dir_shards
    (match p.Protocol.dir_hash with
    | Lk_coherence.Shard.Mod -> "mod"
    | Lk_coherence.Shard.Mix -> "mix")
    t.link_latency t.router_latency t.noc_contention
    (Lk_mesh.Topology.kind_name t.topology)
