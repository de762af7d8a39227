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

(* Signed minimal displacement from position [a] to [b] on an axis of
   [n] positions: the plain difference on a mesh axis, the short way
   round on a wrapping one, with an exact half-way tie going forward
   (+). *)
let displacement ~wrap n a b =
  if not wrap then b - a
  else
    let fwd = (b - a + n) mod n in
    if fwd <= n - fwd then fwd else fwd - n

let wraps t = match t.kind with Torus | Ring -> true | Mesh | Crossbar -> false

let distance t ~src ~dst =
  match t.kind with
  | Crossbar -> if src = dst then 0 else 1
  | Mesh | Torus | Ring ->
    let wrap = wraps t in
    abs (displacement ~wrap t.cols (src mod t.cols) (dst mod t.cols))
    + abs (displacement ~wrap t.rows (src / t.cols) (dst / t.cols))

let hops t ~src ~dst =
  check_tile t src "hops";
  check_tile t dst "hops";
  distance t ~src ~dst

(* Link indices: the grid-like topologies number the links leaving a
   tile [tile * 4 + dir] with [dir] 0..3 for N/S/W/E (row - 1, row + 1,
   col - 1, col + 1, modulo the axis on the torus); the ring is a
   one-row torus, so it uses 3 for clockwise (+1) and 2 for
   counter-clockwise; the crossbar uses the full [from * tiles + to]
   square. *)
let north = 0
let south = 1
let west = 2
let east = 3

(* The one routing rule, as a reusable cursor over a route's links:
   dimension order, X (columns) first, then Y (rows), each axis the
   short way round when it wraps (torus and ring); the crossbar is one
   direct hop. [start] splits the endpoints into row and column once
   and computes the first link of each leg; each [next] then moves one
   position along the current leg by addition, wrapping with a
   compare, so a hop costs no division and no allocation. *)
type walk = {
  mutable row : int;  (* current position *)
  mutable col : int;
  mutable xs : int;  (* hops left along the row *)
  mutable xstep : int;  (* column change per X hop: +1, -1 (crossbar: any) *)
  mutable xlink : int;  (* index of the next X link *)
  mutable ys : int;  (* then hops left along the column *)
  mutable ystep : int;  (* row change per Y hop: +1 or -1 *)
  mutable ylink : int;  (* index of the next Y link *)
}

let walk () =
  { row = 0; col = 0; xs = 0; xstep = 0; xlink = 0; ys = 0; ystep = 0; ylink = 0 }

let start t w ~src ~dst =
  let sc = src mod t.cols and dc = dst mod t.cols in
  let sr = src / t.cols in
  w.row <- sr;
  w.col <- sc;
  match t.kind with
  | Crossbar ->
    (* One row: the single hop moves straight to [dst]'s column. *)
    w.xs <- (if src = dst then 0 else 1);
    w.xstep <- dc - sc;
    w.xlink <- (src * tiles t) + dst;
    w.ys <- 0
  | Mesh | Torus | Ring ->
    let wrap = wraps t in
    let dx = displacement ~wrap t.cols sc dc in
    let dy = displacement ~wrap t.rows sr (dst / t.cols) in
    w.xs <- abs dx;
    w.xstep <- (if dx > 0 then 1 else -1);
    w.xlink <- (src * 4) + if dx > 0 then east else west;
    w.ys <- abs dy;
    w.ystep <- (if dy > 0 then 1 else -1);
    w.ylink <- ((((sr * t.cols) + dc) * 4) + if dy > 0 then south else north)

let position t w = (w.row * t.cols) + w.col

(* A grid hop moves the link index by 4 per column and [4 * cols] per
   row; wrapping round an axis moves it back across the whole axis.
   The crossbar's one hop never advances further, so its [xlink]
   update is dead. *)
let next t w =
  if w.xs > 0 then begin
    let i = w.xlink in
    w.xs <- w.xs - 1;
    let c = w.col + w.xstep in
    if c >= t.cols then begin
      w.col <- c - t.cols;
      w.xlink <- i + 4 - (4 * t.cols)
    end
    else if c < 0 then begin
      w.col <- c + t.cols;
      w.xlink <- i - 4 + (4 * t.cols)
    end
    else begin
      w.col <- c;
      w.xlink <- i + (4 * w.xstep)
    end;
    i
  end
  else if w.ys > 0 then begin
    let i = w.ylink in
    w.ys <- w.ys - 1;
    let r = w.row + w.ystep in
    let axis = 4 * t.cols in
    if r >= t.rows then begin
      w.row <- r - t.rows;
      w.ylink <- i + axis - (axis * t.rows)
    end
    else if r < 0 then begin
      w.row <- r + t.rows;
      w.ylink <- i - axis + (axis * t.rows)
    end
    else begin
      w.row <- r;
      w.ylink <- i + (axis * w.ystep)
    end;
    i
  end
  else -1

let route t ~src ~dst =
  check_tile t src "route";
  check_tile t dst "route";
  let w = walk () in
  start t w ~src ~dst;
  let rec go from_tile acc =
    if next t w < 0 then List.rev acc
    else
      let to_tile = position t w in
      go to_tile ({ from_tile; to_tile } :: acc)
  in
  go src []

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
   route's only link. *)
let link_index t { from_tile; to_tile } =
  check_tile t from_tile "link_index";
  check_tile t to_tile "link_index";
  let w = walk () in
  start t w ~src:from_tile ~dst:to_tile;
  let i = next t w in
  if i < 0 || position t w <> to_tile then
    invalid_arg "Topology.link_index: tiles are not adjacent";
  i

let num_links t =
  match t.kind with
  | Crossbar -> tiles t * tiles t
  | Mesh | Torus | Ring -> tiles t * 4

