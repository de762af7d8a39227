(* Multi-word bitset keyed by core id, 32 bits per word (shift/mask
   index arithmetic, no division). The representation is canonical —
   no trailing zero words, the empty set is the shared [[||]] — so
   structural word-by-word comparison decides equality and [is_empty]
   is a length test. Values are immutable: [add]/[remove] return fresh
   arrays (a one-word array for sets confined to cores 0..31, the
   common case at the paper's machine sizes), which keeps the
   functional interface the directory code was written against. *)

type t = int array

let max_cores = 1 lsl Types.core_bits
let word_bits = 5 (* 32 ids per word *)
let word_mask = 31

let check c =
  if c < 0 || c >= max_cores then
    invalid_arg ("Coreset: core id " ^ string_of_int c ^ " out of range")

let empty : t = [||]

(* One-word sets (every set on a machine of up to 32 cores) are built
   as array literals: [Array.make] and [Array.copy] are calls into the
   runtime. *)
let singleton c =
  check c;
  let w = c lsr word_bits in
  if w = 0 then [| 1 lsl c |]
  else begin
    let a = Array.make (w + 1) 0 in
    a.(w) <- 1 lsl (c land word_mask);
    a
  end

let mem c s =
  check c;
  let w = c lsr word_bits in
  w < Array.length s && s.(w) land (1 lsl (c land word_mask)) <> 0

let add c s =
  check c;
  let w = c lsr word_bits in
  let n = Array.length s in
  if w < n then
    if s.(w) land (1 lsl (c land word_mask)) <> 0 then s
    else if n = 1 then [| s.(0) lor (1 lsl c) |]
    else begin
      let a = Array.copy s in
      a.(w) <- a.(w) lor (1 lsl (c land word_mask));
      a
    end
  else if n = 0 then singleton c
  else begin
    let a = Array.make (w + 1) 0 in
    Array.blit s 0 a 0 n;
    a.(w) <- 1 lsl (c land word_mask);
    a
  end

(* Drop trailing zero words so the result stays canonical. *)
let trim (a : t) =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then empty
  else if !n = Array.length a then a
  else Array.sub a 0 !n

let remove c s =
  check c;
  let w = c lsr word_bits in
  if w >= Array.length s || s.(w) land (1 lsl (c land word_mask)) = 0 then s
  else if Array.length s = 1 then
    let rest = s.(0) land lnot (1 lsl c) in
    if rest = 0 then empty else [| rest |]
  else begin
    let a = Array.copy s in
    a.(w) <- a.(w) land lnot (1 lsl (c land word_mask));
    trim a
  end

let is_empty (s : t) = Array.length s = 0

let cardinal (s : t) =
  let total = ref 0 in
  for i = 0 to Array.length s - 1 do
    let w = ref s.(i) in
    while !w <> 0 do
      w := !w land (!w - 1);
      incr total
    done
  done;
  !total

let fold f (s : t) init =
  let acc = ref init in
  for i = 0 to Array.length s - 1 do
    let w = ref s.(i) in
    let base = i lsl word_bits in
    let b = ref 0 in
    while !w <> 0 do
      if !w land 1 <> 0 then acc := f (base + !b) !acc;
      w := !w lsr 1;
      incr b
    done
  done;
  !acc

let elements s = List.rev (fold (fun c acc -> c :: acc) s [])

let iter f (s : t) =
  for i = 0 to Array.length s - 1 do
    let w = ref s.(i) in
    let base = i lsl word_bits in
    let b = ref 0 in
    while !w <> 0 do
      if !w land 1 <> 0 then f (base + !b);
      w := !w lsr 1;
      incr b
    done
  done

let lowest_bit = Lk_engine.Bits.lowest_bit

(* The least member in word [w] or above, a word at a time. *)
let rec next_from (s : t) w =
  if w >= Array.length s then -1
  else
    let bits = s.(w) in
    if bits = 0 then next_from s (w + 1)
    else (w lsl word_bits) + lowest_bit bits

let next (s : t) c =
  let w = c lsr word_bits in
  if w >= Array.length s then -1
  else
    let bits = s.(w) land (-1 lsl (c land word_mask)) in
    if bits = 0 then next_from s (w + 1)
    else (w lsl word_bits) + lowest_bit bits

let of_list l = List.fold_left (fun s c -> add c s) empty l

let of_bits b =
  if b < 0 then invalid_arg "Coreset.of_bits: negative word";
  let hi = b lsr 32 in
  if hi <> 0 then [| b land 0xFFFFFFFF; hi |]
  else if b <> 0 then [| b |]
  else empty
