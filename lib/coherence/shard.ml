(* Address->shard hash and shard->home-tile map of the multi-bank LLC
   directory.

   A machine has [tiles] mesh tiles and [count] directory shards
   (1 <= count <= tiles); each shard owns one LLC bank and the request
   FIFOs of the lines hashing to it, and lives at a fixed home tile.
   The default plan — one shard per tile with the [Mod] hash — is
   exactly the historical [line mod tiles] interleaving, bit for bit,
   so existing fixtures and cache keys are unaffected.

   Everything here is pure integer arithmetic on the hot path: no
   tables, no allocation. *)

type hash = Mod | Mix

(* [mask] is [count - 1] when [count] is a power of two, else -1: the
   [Mod] hash then takes the low bits instead of dividing. *)
type t = { count : int; tiles : int; hash : hash; mask : int }

let make ~count ~tiles ~hash =
  if tiles <= 0 then invalid_arg "Shard.make: tiles must be positive";
  if count <= 0 || count > tiles then
    invalid_arg
      ("Shard.make: shard count must be in [1, tiles]; got "
      ^ string_of_int count ^ " shards for " ^ string_of_int tiles ^ " tiles");
  let mask = if Addr.log2_exact count >= 0 then count - 1 else -1 in
  { count; tiles; hash; mask }

let count t = t.count
let tiles t = t.tiles
let hash t = t.hash

(* Fibonacci-style multiplicative mix (constant < 2^62, result masked
   non-negative): decorrelates shard choice from low address bits so
   strided accesses spread instead of hammering shard [stride mod n]. *)
let mix l =
  let x = l lxor (l lsr 33) in
  let x = x * 0x2545F4914F6CDD1D land max_int in
  x lxor (x lsr 29)

let of_line t line =
  match t.hash with
  | Mod -> if t.mask >= 0 then line land t.mask else line mod t.count
  | Mix -> mix line mod t.count

(* Shards spread evenly across the tile grid; identity when there is
   one shard per tile. *)
let home_tile t s = if t.count = t.tiles then s else s * t.tiles / t.count
