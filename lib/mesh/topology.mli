(** Interconnect topologies and minimal deterministic routing.

    The modelled system (Table I of the paper) is a 4x8 mesh with X-Y
    dimension-ordered routing: a packet first travels along the row (X
    direction) to the destination column, then along the column. X-Y
    routing on a mesh is deadlock-free, which is why the paper can
    treat the interconnect as a reliable request/response fabric.

    The paper notes (Section III-A) that its framework does not depend
    on the topology as long as any two nodes are reachable; to exercise
    that claim the module also provides a bidirectional ring (shortest
    direction routing), a 2-D torus (dimension-ordered with wrap-around
    when shorter) and a full crossbar (single hop). All routes are
    deterministic and minimal. *)

type t

type kind =
  | Mesh  (** 2-D mesh, X-Y routing (the paper's machine). *)
  | Torus  (** 2-D torus, X-Y routing with wrap-around. *)
  | Ring  (** Bidirectional ring, shortest-direction routing. *)
  | Crossbar  (** All-to-all, every route is one hop. *)

type link = { from_tile : int; to_tile : int }
(** A directed link between adjacent tiles. *)

val create : rows:int -> cols:int -> t
(** [create ~rows ~cols] builds an [rows] x [cols] mesh. Both must be
    positive. *)

val create_torus : rows:int -> cols:int -> t
(** Both dimensions must be at least 3 for the wrap links to be
    distinct from the mesh links. *)

val create_ring : tiles:int -> t
(** At least 3 tiles. *)

val create_crossbar : tiles:int -> t
(** At least 2 tiles. *)

val kind : t -> kind
val kind_name : kind -> string

val rows : t -> int
(** Rings and crossbars report one row. *)

val cols : t -> int
val tiles : t -> int

val route : t -> src:int -> dst:int -> link list
(** The deterministic minimal route between two tiles as the ordered
    list of directed links traversed; empty when [src = dst]. The list
    form of {!segments}. *)

val hops : t -> src:int -> dst:int -> int
(** Number of links on the route. Pure arithmetic. *)

val route_hops : t -> src:int -> dst:int -> int
(** {!hops} for tiles the caller has already range-checked. *)

val links : t -> link list
(** Every directed link of the topology. *)

val link_index : t -> link -> int
(** Dense index of a link, for utilisation counters. Raises on a pair
    of tiles that are not adjacent in this topology. *)

val num_links : t -> int
(** Upper bound (array size) for {!link_index}. *)

(** {1 Route segments}

    The one routing rule: dimension order, X (along the row) first,
    then Y, each axis the short way round on torus and ring, an exact
    half-way tie going forward (+1); the crossbar is one direct hop.
    Along a leg the link index (see {!link_index}) moves by a fixed
    stride, so a route is at most {!max_segments} arithmetic runs of
    links: the X leg then the Y leg, each split once where a torus or
    ring axis wraps. {!route}, {!link_index} and the contention model
    of [Network.send] read these segments; {!hops} and {!charge} use
    the same leg arithmetic without them. *)

val max_segments : int
(** 4. *)

val segments : t -> int array -> src:int -> dst:int -> int
(** [segments t buf ~src ~dst] writes the route from [src] to [dst]
    into [buf] as [(first link, stride, count)] triples — segment [k]
    at [buf.(3k)], [buf.(3k+1)], [buf.(3k+2)], every count positive —
    and returns the number of segments (0 when [src = dst]). [buf]
    must hold [3 * max_segments] ints. Unchecked: both tiles must be
    in range. Allocation-free and division-free. *)

(** {1 Per-link counters in difference form}

    The links of one direction along one row (E or W) or one column
    (N or S) form a progression, ordered by column or row; on the
    crossbar every link is a progression of its own. A counter array
    of {!num_links} ints in difference form holds at each link the
    change from its predecessor in the progression, so a link's count
    is the sum of its progression up to it, and a route leg — a
    contiguous run of one progression, split once where a torus or
    ring axis wraps — is charged at its two ends, whatever its length. *)

val charge : t -> int array -> src:int -> dst:int -> flits:int -> int
(** [charge t diff ~src ~dst ~flits] adds [flits] to every link of the
    route from [src] to [dst] in the difference-form array [diff], with
    two updates per leg (three where it wraps), and returns the route's
    hop count.
    Unchecked: both tiles must be in range. Allocation-free. *)

val link_total : t -> int array -> int -> int
(** [link_total t diff l] is link [l]'s count in the difference-form
    array [diff]: the sum of its progression up to [l]. *)

val link_totals : t -> int array -> int array -> unit
(** [link_totals t diff out] writes every link's count into [out] (of
    {!num_links} ints) in one ascending pass. Allocation-free. *)
