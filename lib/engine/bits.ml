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

(* SWAR: bit counts of pairs, nibbles, then bytes, summed into the top
   byte by one multiply. The masks are the 64-bit ones cut to 63 bits,
   which a non-negative word never reaches. *)
let popcount w =
  let w = w - ((w lsr 1) land 0x1555_5555_5555_5555) in
  let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
  let w = (w + (w lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (w * 0x0101_0101_0101_0101) lsr 56
