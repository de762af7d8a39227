(** Machine configurations (Table I and the sensitivity study of
    Section IV-e). *)

(** Cache sizing. [Typical] is Table I (32KB L1, 8MB LLC); [Small] and
    [Large] are the Fig 13 sensitivity points (8KB/1MB and
    128KB/32MB). *)
type cache_profile = Typical | Small | Large

type t = {
  cores : int;
  rows : int;
  cols : int;
  cache : cache_profile;
  protocol : Lk_coherence.Protocol.config;
  link_latency : int;
  router_latency : int;
  noc_contention : bool;
      (** Model per-link occupancy in the mesh (off by default; see
          {!Lk_mesh.Network}). *)
  topology : Lk_mesh.Topology.kind;
      (** Interconnect shape; the paper's machine is a mesh. The
          framework is topology-agnostic (Section III-A), which the
          'topology' experiment exercises. *)
}

val max_cores : int
(** Largest supported machine (1024 cores — the {!Lk_coherence.Coreset}
    directory width). *)

val mesh_shape : int -> int * int
(** [(rows, cols)] for a core count: the largest divisor not exceeding
    the square root, so k*k and 2k*k counts get their exact grid
    (2->1x2, 4->2x2, 8->2x4, ..., 256->16x16, 512->16x32, 1024->32x32)
    and primes degrade to a 1xN chain. Raises [Invalid_argument]
    outside [1, max_cores]. *)

val machine :
  ?cache:cache_profile ->
  ?cores:int ->
  ?noc_contention:bool ->
  ?topology:Lk_mesh.Topology.kind ->
  ?exclusive_state:bool ->
  ?dir_pointers:int option ->
  ?dir_shards:int ->
  ?dir_hash:Lk_coherence.Shard.hash ->
  unit ->
  t
(** Defaults to the paper's 32-core 4x8 tiled CMP: contention-free NoC,
    MESI ([exclusive_state = true]), full-map directory ([dir_pointers
    = None]); the last two are protocol-fidelity ablation knobs, see
    {!Lk_coherence.Protocol.config}. Supported core counts: 1 to
    {!max_cores}, shaped by {!mesh_shape}. [dir_shards] (default [0] =
    one directory shard per tile) and [dir_hash] select the LLC
    directory sharding plan ({!Lk_coherence.Shard}). *)

val cache_profile_name : cache_profile -> string

val cache_profile_id : cache_profile -> string
(** Short machine-readable id: ["typical"], ["small"] or ["large"] —
    used by the CLI flags, the JSON codec and the result cache. *)

val cache_profile_of_id : string -> cache_profile option
(** Inverse of {!cache_profile_id}. *)

val fingerprint : t -> string
(** Canonical one-line rendering of every behaviour-affecting field —
    the machine component of a {!Cache} key. Two machines with equal
    fingerprints produce identical simulations. *)

val table1 : t -> (string * string) list
(** The (component, value) rows of Table I for this machine. *)

val build : t -> Lk_engine.Sim.t * Lk_mesh.Network.t * Lk_coherence.Protocol.t
(** Instantiate the simulator, network and protocol. *)
