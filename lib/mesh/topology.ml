type kind = Mesh | Torus | Ring | Crossbar

(* [row_of]/[col_of] split a tile id into its grid position, so a route
   costs no division. [scratch] is the segment buffer of the cold
   readers ([route], [link_index]). *)
type t = {
  kind : kind;
  rows : int;
  cols : int;
  row_of : int array;
  col_of : int array;
  scratch : int array;
}

type link = { from_tile : int; to_tile : int }

let max_segments = 4

let make kind ~rows ~cols =
  let n = rows * cols in
  {
    kind;
    rows;
    cols;
    row_of = Array.init n (fun id -> id / cols);
    col_of = Array.init n (fun id -> id mod cols);
    scratch = Array.make (3 * max_segments) 0;
  }

let kind t = t.kind

let kind_name = function
  | Mesh -> "mesh"
  | Torus -> "torus"
  | Ring -> "ring"
  | Crossbar -> "crossbar"

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then
    invalid_arg "Topology.create: dimensions must be positive";
  make Mesh ~rows ~cols

let create_torus ~rows ~cols =
  if rows < 3 || cols < 3 then
    invalid_arg "Topology.create_torus: dimensions must be at least 3";
  make Torus ~rows ~cols

let create_ring ~tiles =
  if tiles < 3 then invalid_arg "Topology.create_ring: need at least 3 tiles";
  make Ring ~rows:1 ~cols:tiles

let create_crossbar ~tiles =
  if tiles < 2 then
    invalid_arg "Topology.create_crossbar: need at least 2 tiles";
  make Crossbar ~rows:1 ~cols:tiles

let rows t = t.rows
let cols t = t.cols
let tiles t = t.rows * t.cols

let check_tile t id name =
  if id < 0 || id >= tiles t then
    invalid_arg
      ("Topology." ^ name ^ ": tile " ^ string_of_int id ^ " out of range")

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

(* Signed minimal displacement from position [a] to [b] on an axis of
   [n] positions: the plain difference on a mesh axis, the short way
   round on a wrapping one, with an exact half-way tie going forward
   (+). *)
let[@inline] displacement ~wrap n a b =
  let d = b - a in
  if not wrap then d
  else
    let fwd = if d < 0 then d + n else d in
    if fwd <= n - fwd then fwd else fwd - n

(* Write segment [k] of [buf]. *)
let[@inline] put (buf : int array) k ~first ~stride ~count =
  let o = 3 * k in
  buf.(o) <- first;
  buf.(o + 1) <- stride;
  buf.(o + 2) <- count

(* The one leg rule. [d] signed hops from position [p] of an axis of
   [len] positions leave the links at the positions of the circular
   run [s, s + |d|), [s] returned: [p] going forward, [p + d + 1] going
   back. The run wraps past the axis end (torus and ring only) when
   [s + |d| > len], and then covers [s, len) and [0, s + |d| - len). *)
let[@inline] leg_start ~len ~p ~d =
  if d >= 0 then p
  else
    let s = p + d + 1 in
    if s < 0 then s + len else s

(* Write segment [k] of [buf] for one leg, in route order: [d] signed
   hops from position [p] of an axis of [len] positions, where the
   link leaving position [q] in the leg's direction has index
   [base + q * step]. A wrapping leg continues from the far end, so it
   splits once there. Returns the next free segment. *)
let[@inline] put_leg buf k ~base ~step ~len ~p ~d =
  if d = 0 then k
  else begin
    let hops = Int.abs d in
    let wrapped = leg_start ~len ~p ~d + hops - len in
    let near =
      if wrapped <= 0 then hops else if d > 0 then hops - wrapped else wrapped
    in
    let stride = if d > 0 then step else -step in
    put buf k ~first:(base + (p * step)) ~stride ~count:near;
    if near = hops then k + 1
    else begin
      put buf (k + 1)
        ~first:(if d > 0 then base else base + ((len - 1) * step))
        ~stride ~count:(hops - near);
      k + 2
    end
  end

(* Charge one leg's links [flits] in difference form: the leg's run,
   split where it wraps, gains [flits] at its first position and loses
   them just past its last, unless that is past the axis end. Returns
   [hops] plus the leg's. *)
let[@inline] charge_leg diff ~flits hops ~base ~step ~len ~p ~d =
  if d = 0 then hops
  else begin
    let s = leg_start ~len ~p ~d in
    let e = s + Int.abs d in
    let i = base + (s * step) in
    diff.(i) <- diff.(i) + flits;
    if e < len then begin
      let j = base + (e * step) in
      diff.(j) <- diff.(j) - flits
    end
    else if e > len then begin
      diff.(base) <- diff.(base) + flits;
      let j = base + ((e - len) * step) in
      diff.(j) <- diff.(j) - flits
    end;
    hops + Int.abs d
  end

(* What [legs] does with each leg: add up its hops, write it into a
   segment buffer, or charge it into a difference-form array. *)
type op = Count | Segment | Charge

(* An [if] on a constant [op] folds away once [legs] is inlined into
   its caller, leaving only that operation's code; a [match] would
   not. *)
let[@inline] on_leg op arr flits acc ~base ~step ~len ~p ~d =
  if op = Segment then put_leg arr acc ~base ~step ~len ~p ~d
  else if op = Charge then charge_leg arr ~flits acc ~base ~step ~len ~p ~d
  else acc + Int.abs d

(* The one routing rule, applying [op] to each leg of the route from
   [src] to [dst] with [acc] threaded from one leg to the next. A grid
   route is the X leg along [src]'s row to [dst]'s column, then the Y
   leg down [dst]'s column, each axis the short way round when it
   wraps: along the X leg the link index moves by 4 per column, along
   the Y leg by [4 * cols] per row. The crossbar's one direct hop is a
   leg of one position. *)
let[@inline] legs op t ~src ~dst arr flits =
  match t.kind with
  | Crossbar ->
    if src = dst then 0
    else
      on_leg op arr flits 0 ~base:((src * tiles t) + dst) ~step:0 ~len:1 ~p:0
        ~d:1
  | Mesh | Torus | Ring ->
    let wrap =
      match t.kind with Torus | Ring -> true | Mesh | Crossbar -> false
    in
    let sr = t.row_of.(src) and sc = t.col_of.(src) in
    let dr = t.row_of.(dst) and dc = t.col_of.(dst) in
    let dx = displacement ~wrap t.cols sc dc in
    let dy = displacement ~wrap t.rows sr dr in
    let acc =
      on_leg op arr flits 0
        ~base:((4 * sr * t.cols) + if dx > 0 then east else west)
        ~step:4 ~len:t.cols ~p:sc ~d:dx
    in
    on_leg op arr flits acc
      ~base:((4 * dc) + if dy > 0 then south else north)
      ~step:(4 * t.cols) ~len:t.rows ~p:sr ~d:dy

let segments t buf ~src ~dst = legs Segment t ~src ~dst buf 0
let charge t diff ~src ~dst ~flits = legs Charge t ~src ~dst diff flits

(* A link's progression predecessor: the link of the same direction
   one column west (E/W links) or one row north (N/S links), or -1 at
   the start of the progression; on the crossbar every link is its
   own progression. *)
let[@inline] previous t l =
  match t.kind with
  | Crossbar -> -1
  | Mesh | Torus | Ring ->
    let tile = l lsr 2 in
    if l land 2 <> 0 then if t.col_of.(tile) = 0 then -1 else l - 4
    else if t.row_of.(tile) = 0 then -1
    else l - (4 * t.cols)

let link_total t diff l =
  let total = ref 0 and l = ref l in
  while !l >= 0 do
    total := !total + diff.(!l);
    l := previous t !l
  done;
  !total

(* A predecessor has a lower index, so one ascending pass sums every
   progression. *)
let link_totals t diff out =
  for l = 0 to Array.length diff - 1 do
    let p = previous t l in
    out.(l) <- (if p < 0 then diff.(l) else out.(p) + diff.(l))
  done

let route_hops t ~src ~dst = legs Count t ~src ~dst [||] 0

let hops t ~src ~dst =
  check_tile t src "hops";
  check_tile t dst "hops";
  route_hops t ~src ~dst

(* The tiles at the two ends of link index [l]. *)
let link_ends t l =
  match t.kind with
  | Crossbar -> (l / tiles t, l mod tiles t)
  | Mesh | Torus | Ring ->
    let from_tile = l / 4 in
    let r = t.row_of.(from_tile) and c = t.col_of.(from_tile) in
    let r, c =
      match l mod 4 with
      | 0 -> (r - 1, c)
      | 1 -> (r + 1, c)
      | 2 -> (r, c - 1)
      | _ -> (r, c + 1)
    in
    let wrapped v n = if v < 0 then v + n else if v >= n then v - n else v in
    (from_tile, (wrapped r t.rows * t.cols) + wrapped c t.cols)

(* The route's link indices, in order. *)
let link_indices t ~src ~dst =
  let buf = t.scratch in
  let n = segments t buf ~src ~dst in
  List.concat
    (List.init n (fun k ->
         let first = buf.(3 * k) and stride = buf.((3 * k) + 1) in
         List.init buf.((3 * k) + 2) (fun j -> first + (j * stride))))

let route t ~src ~dst =
  check_tile t src "route";
  check_tile t dst "route";
  List.map
    (fun l ->
      let from_tile, to_tile = link_ends t l in
      { from_tile; to_tile })
    (link_indices t ~src ~dst)

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
  match link_indices t ~src:from_tile ~dst:to_tile with
  | [ l ] -> l
  | [] | _ :: _ :: _ ->
    invalid_arg "Topology.link_index: tiles are not adjacent"

let num_links t =
  match t.kind with
  | Crossbar -> tiles t * tiles t
  | Mesh | Torus | Ring -> tiles t * 4
