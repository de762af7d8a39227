type t = { row : int; col : int }

let of_tile ~cols id =
  if cols <= 0 then invalid_arg "Coord.of_tile: cols must be positive";
  { row = id / cols; col = id mod cols }

let to_tile ~cols { row; col } = (row * cols) + col

let manhattan a b = abs (a.row - b.row) + abs (a.col - b.col)
