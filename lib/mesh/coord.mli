(** Tile coordinates on the 2-D mesh.

    Tiles are numbered row-major: tile [id] of a mesh with [cols]
    columns sits at row [id / cols], column [id mod cols]. *)

type t = { row : int; col : int }

val of_tile : cols:int -> int -> t
(** Position of a tile id (row-major). *)

val to_tile : cols:int -> t -> int

val manhattan : t -> t -> int
(** Hop distance under minimal routing. *)

