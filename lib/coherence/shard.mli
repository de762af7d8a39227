(** Directory sharding plan: the address→shard hash and the
    shard→home-tile placement of the multi-bank LLC directory.

    The default plan — one shard per tile, {!hash} [Mod] — reproduces
    the historical [line mod tiles] home interleaving exactly. Fewer
    shards than tiles model a hierarchical directory (several tiles per
    LLC slice); the [Mix] hash decorrelates shard choice from low
    address bits for strided workloads. All maps are pure arithmetic:
    allocation-free and identical on every domain. *)

type hash = Mod  (** [line mod count] — the historical interleaving *)
          | Mix  (** multiplicative bit-mix, then mod *)

type t

val make : count:int -> tiles:int -> hash:hash -> t
(** Requires [1 <= count <= tiles]. *)

val count : t -> int

val tiles : t -> int
(** The tiles (= cores) the plan was made for. *)

val hash : t -> hash

val of_line : t -> Types.line -> int
(** Shard owning a line. Allocation-free. *)

val home_tile : t -> int -> int
(** Tile hosting a shard ([s * tiles / count]; identity when
    [count = tiles]). *)
