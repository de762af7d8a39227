type kind = Compute | Read | Write | Incr | Add | Fault

(* Slot [i] is two ints: at [2i] its operand (a compute's cycles or an
   address) shifted left over its kind's index in declaration order,
   at [2i + 1] its value. *)
type t = {
  mutable pre_compute : int;
  mutable post_compute : int;
  mutable length : int;
  mutable code : int array;
}

let kinds = [| Compute; Read; Write; Incr; Add; Fault |]
let create () = { pre_compute = 0; post_compute = 0; length = 0; code = [||] }
let length b = b.length
let pre_compute b = b.pre_compute
let post_compute b = b.post_compute
let kind b i = kinds.(b.code.(2 * i) land 7)
let operand b i = b.code.(2 * i) asr 3
let value b i = b.code.((2 * i) + 1)

let reserve b n =
  if 2 * n > Array.length b.code then begin
    let code = Array.make (Int.max 64 (2 * n)) 0 in
    Array.blit b.code 0 code 0 (Array.length b.code);
    b.code <- code
  end

(* Room for slot [i], doubling what it needs. *)
let fit b i = if (2 * i) + 2 > Array.length b.code then reserve b (2 * (i + 1))

let set b i kind operand value =
  if operand asr 59 <> operand asr 62 then
    invalid_arg "Body.set: operand out of range";
  fit b i;
  b.code.(2 * i) <-
    (operand lsl 3)
    lor (match kind with
        | Compute -> 0 | Read -> 1 | Write -> 2 | Incr -> 3 | Add -> 4 | Fault -> 5);
  b.code.((2 * i) + 1) <- value

let move b ~src ~dst =
  fit b dst;
  Array.blit b.code (2 * src) b.code (2 * dst) 2

let swap b i j =
  for k = 0 to 1 do
    let x = b.code.((2 * i) + k) in
    b.code.((2 * i) + k) <- b.code.((2 * j) + k);
    b.code.((2 * j) + k) <- x
  done

let finish b ~length ~pre_compute ~post_compute =
  b.length <- length;
  b.pre_compute <- pre_compute;
  b.post_compute <- post_compute
