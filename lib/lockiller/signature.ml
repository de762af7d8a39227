type t = {
  bits : Bytes.t;
  mask : int;
  hashes : int;
  mutable population : int;
  mutable insertions : int;
}

let create ?(bits = 2048) ?(hashes = 4) () =
  if bits <= 0 || bits land (bits - 1) <> 0 then
    invalid_arg "Signature.create: bits must be a power of two";
  if hashes <= 0 then invalid_arg "Signature.create: hashes must be positive";
  {
    bits = Bytes.make (bits / 8) '\000';
    mask = bits - 1;
    hashes;
    population = 0;
    insertions = 0;
  }

(* Two independent mixes combined as h1 + i*h2 (Kirsch-Mitzenmacher). *)
let mix1 x =
  let x = x * 0x9E3779B1 land max_int in
  x lxor (x lsr 16)

let mix2 x =
  let x = x * 0x85EBCA77 land max_int in
  (x lxor (x lsr 13)) lor 1

let bit_index t line i = (mix1 line + (i * mix2 line)) land t.mask

let get_bit t idx = Char.code (Bytes.get t.bits (idx lsr 3)) land (1 lsl (idx land 7)) <> 0

let set_bit t idx =
  if not (get_bit t idx) then begin
    let byte = Char.code (Bytes.get t.bits (idx lsr 3)) in
    Bytes.set t.bits (idx lsr 3) (Char.chr (byte lor (1 lsl (idx land 7))));
    t.population <- t.population + 1
  end

let add t line =
  t.insertions <- t.insertions + 1;
  for i = 0 to t.hashes - 1 do
    set_bit t (bit_index t line i)
  done

(* Whether probes [i, hashes) all hit. Top-level, so a membership test
   allocates no closure. *)
let rec probe t line i =
  i >= t.hashes || (get_bit t (bit_index t line i) && probe t line (i + 1))

let test t line = t.insertions > 0 && probe t line 0

let clear t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  t.population <- 0;
  t.insertions <- 0

let population t = t.population
let is_empty t = t.insertions = 0
