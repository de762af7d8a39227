type kind = Mesh | Torus | Ring | Crossbar

type t = { kind : kind; rows : int; cols : int }

type link = { from_tile : int; to_tile : int }

let kind t = t.kind

let kind_name = function
  | Mesh -> "mesh"
  | Torus -> "torus"
  | Ring -> "ring"
  | Crossbar -> "crossbar"

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then
    invalid_arg "Topology.create: dimensions must be positive";
  { kind = Mesh; rows; cols }

let create_torus ~rows ~cols =
  if rows < 3 || cols < 3 then
    invalid_arg "Topology.create_torus: dimensions must be at least 3";
  { kind = Torus; rows; cols }

let create_ring ~tiles =
  if tiles < 3 then invalid_arg "Topology.create_ring: need at least 3 tiles";
  { kind = Ring; rows = 1; cols = tiles }

let create_crossbar ~tiles =
  if tiles < 2 then
    invalid_arg "Topology.create_crossbar: need at least 2 tiles";
  { kind = Crossbar; rows = 1; cols = tiles }

let rows t = t.rows
let cols t = t.cols
let tiles t = t.rows * t.cols

let check_tile t id name =
  if id < 0 || id >= tiles t then
    invalid_arg
      ("Topology." ^ name ^ ": tile " ^ string_of_int id ^ " out of range")

(* Direction of the minimal step from [a] to [b] on a wrap-around
   axis of size [n] ([a <> b]): [true] for +1. Ties (exactly half-way)
   go in the positive direction. *)
let wrap_forward n a b =
  let fwd = (b - a + n) mod n in
  fwd <= n - fwd

let wrap_axis_distance n a b =
  let fwd = (b - a + n) mod n in
  Int.min fwd (n - fwd)

let distance t ~src ~dst =
  match t.kind with
  | Mesh ->
    abs ((src / t.cols) - (dst / t.cols))
    + abs ((src mod t.cols) - (dst mod t.cols))
  | Torus ->
    wrap_axis_distance t.cols (src mod t.cols) (dst mod t.cols)
    + wrap_axis_distance t.rows (src / t.cols) (dst / t.cols)
  | Ring -> wrap_axis_distance (tiles t) src dst
  | Crossbar -> if src = dst then 0 else 1

let hops t ~src ~dst =
  check_tile t src "hops";
  check_tile t dst "hops";
  distance t ~src ~dst

(* Link indices: the grid-like topologies number the links leaving a
   tile [tile * 4 + dir] with [dir] 0..3 for N/S/W/E (row - 1, row + 1,
   col - 1, col + 1, modulo the axis on the torus); the ring uses 3 for
   clockwise (+1) and 2 for counter-clockwise; the crossbar uses the
   full [from * tiles + to] square. *)
let north = 0
let south = 1
let west = 2
let east = 3

(* Whether the minimal step from [a] to [b] on an axis of size [n]
   ([a <> b]) is +1. *)
let forward ~wrap n a b = if wrap then wrap_forward n a b else a < b

(* The one routing rule: dimension order, X (columns) first, then Y
   (rows); each axis goes the short way round when it wraps. *)
let next_link t ~cur ~dst =
  match t.kind with
  | Crossbar -> (cur * tiles t) + dst
  | Ring -> (cur * 4) + if wrap_forward (tiles t) cur dst then east else west
  | Mesh | Torus ->
    let wrap =
      match t.kind with Torus -> true | Mesh | Ring | Crossbar -> false
    in
    let cc = cur mod t.cols and dc = dst mod t.cols in
    let dir =
      if cc <> dc then if forward ~wrap t.cols cc dc then east else west
      else if forward ~wrap t.rows (cur / t.cols) (dst / t.cols) then south
      else north
    in
    (cur * 4) + dir

let link_target t i =
  match t.kind with
  | Crossbar -> i mod tiles t
  | Ring ->
    let n = tiles t in
    let from = i / 4 in
    if i mod 4 = east then (from + 1) mod n else (from + n - 1) mod n
  | Mesh | Torus ->
    let from = i / 4 in
    let r = from / t.cols and c = from mod t.cols in
    let dir = i mod 4 in
    if dir = north then ((r + t.rows - 1) mod t.rows * t.cols) + c
    else if dir = south then ((r + 1) mod t.rows * t.cols) + c
    else if dir = west then (r * t.cols) + ((c + t.cols - 1) mod t.cols)
    else (r * t.cols) + ((c + 1) mod t.cols)

let route t ~src ~dst =
  check_tile t src "route";
  check_tile t dst "route";
  let rec walk cur acc =
    if cur = dst then List.rev acc
    else
      let to_tile = link_target t (next_link t ~cur ~dst) in
      walk to_tile ({ from_tile = cur; to_tile } :: acc)
  in
  walk src []

let grid_neighbours t id ~wrap =
  let c = Coord.of_tile ~cols:t.cols id in
  let mk row col =
    if wrap then
      Some
        (Coord.to_tile ~cols:t.cols
           {
             Coord.row = (row + t.rows) mod t.rows;
             col = (col + t.cols) mod t.cols;
           })
    else if row >= 0 && row < t.rows && col >= 0 && col < t.cols then
      Some (Coord.to_tile ~cols:t.cols { Coord.row = row; col })
    else None
  in
  List.filter_map Fun.id
    [
      mk (c.Coord.row - 1) c.Coord.col;
      mk (c.Coord.row + 1) c.Coord.col;
      mk c.Coord.row (c.Coord.col - 1);
      mk c.Coord.row (c.Coord.col + 1);
    ]

let links t =
  match t.kind with
  | Mesh | Torus ->
    let wrap = t.kind = Torus in
    List.concat
      (List.init (tiles t) (fun id ->
           grid_neighbours t id ~wrap
           |> List.sort_uniq Int.compare
           |> List.map (fun n -> { from_tile = id; to_tile = n })))
  | Ring ->
    let n = tiles t in
    List.concat
      (List.init n (fun id ->
           [
             { from_tile = id; to_tile = (id + 1) mod n };
             { from_tile = id; to_tile = (id + n - 1) mod n };
           ]))
  | Crossbar ->
    let n = tiles t in
    List.concat
      (List.init n (fun a ->
           List.filter_map
             (fun b -> if a = b then None else Some { from_tile = a; to_tile = b })
             (List.init n Fun.id)))

(* Adjacent tiles are one hop apart, so the link between them is the
   first hop of the route. *)
let link_index t { from_tile; to_tile } =
  check_tile t from_tile "link_index";
  check_tile t to_tile "link_index";
  let i =
    if from_tile = to_tile then -1 else next_link t ~cur:from_tile ~dst:to_tile
  in
  if i < 0 || link_target t i <> to_tile then
    invalid_arg "Topology.link_index: tiles are not adjacent";
  i

let num_links t =
  match t.kind with
  | Crossbar -> tiles t * tiles t
  | Mesh | Torus | Ring -> tiles t * 4

let pp ppf t =
  match t.kind with
  | Mesh -> Format.fprintf ppf "%dx%d mesh (%d tiles)" t.rows t.cols (tiles t)
  | Torus -> Format.fprintf ppf "%dx%d torus (%d tiles)" t.rows t.cols (tiles t)
  | Ring -> Format.fprintf ppf "ring of %d tiles" (tiles t)
  | Crossbar -> Format.fprintf ppf "crossbar of %d tiles" (tiles t)
