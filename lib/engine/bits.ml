(* Bit tricks on int words, shared by the bitsets of the kernel and the
   directory. *)

let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

(* Isolate the lowest bit and hash it with a de Bruijn multiply into a
   32-entry table; a word with its low 32 bits clear looks above them. *)
let[@inline] lowest32 w =
  debruijn.((((w land -w) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let[@inline] lowest_bit w =
  if w land 0xFFFFFFFF <> 0 then lowest32 w else 32 + lowest32 (w lsr 32)

let popcount w =
  let n = ref 0 and w = ref w in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr n
  done;
  !n
