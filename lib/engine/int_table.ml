(* Open-addressing hash table specialised to non-negative int keys.

   The generic [Hashtbl] pays for a polymorphic hash call, a boxed
   bucket list cell per binding and a key comparison through [compare]
   on every probe. On the simulator's hot paths (per-access L1
   metadata, per-request directory queues, per-read/write value
   lookups) the keys are plain ints, so this table hashes with one
   multiply (Fibonacci hashing on the high bits), probes linearly in a
   flat array pair and allocates only on growth.

   Slots: keys.(i) >= 0 is a live binding, [empty] a free slot.
   Values are ints, so no store needs a write barrier. [remove] shifts
   the rest of the probe chain back over the freed slot (backward-shift
   deletion), so no tombstone is left: a lookup stops at the first free
   slot, and deletions never force a rehash. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable size : int;  (* live bindings *)
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
}

let empty = -1

(* Odd 62-bit multiplier (Lehmer); the top bits of k * m are
   well-mixed, so take the hash from there. *)
let fib = 0x2545F4914F6CDD1D

let capacity_for n =
  let rec go c = if c >= n then c else go (2 * c) in
  go 4

let create ?(capacity = 16) () =
  let cap = capacity_for capacity in
  {
    keys = Array.make cap empty;
    vals = Array.make cap 0;
    size = 0;
    mask = cap - 1;
  }

let length t = t.size
let is_empty t = t.size = 0

let slot_of t key =
  (* mask = cap - 1, cap a power of two: shift the mixed bits down so
     the low [log2 cap] bits of the result are the high bits of k*m. *)
  let h = key * fib in
  (h lsr 8) land t.mask

(* Linear probe from slot [i] for [key]: its index, or -1 at the
   first never-used slot. Top-level, so a lookup allocates no
   closure. *)
let rec probe keys mask key i =
  let k = keys.(i) in
  if k = key then i
  else if k = empty then -1
  else probe keys mask key ((i + 1) land mask)

(* Index of [key]'s slot, or -1 when absent. *)
let find_slot t key = probe t.keys t.mask key (slot_of t key)

let mem t key = find_slot t key >= 0

let find_opt t key =
  let i = find_slot t key in
  if i >= 0 then Some t.vals.(i) else None

let find t key ~default =
  let i = find_slot t key in
  if i >= 0 then t.vals.(i) else default

(* Double the capacity, re-placing every binding. *)
let grow t =
  let okeys = t.keys and ovals = t.vals in
  let cap = 2 * Array.length okeys in
  t.keys <- Array.make cap empty;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  for i = 0 to Array.length okeys - 1 do
    let k = okeys.(i) in
    if k >= 0 then begin
      let j = ref (slot_of t k) in
      while t.keys.(!j) <> empty do
        j := (!j + 1) land t.mask
      done;
      t.keys.(!j) <- k;
      t.vals.(!j) <- ovals.(i)
    end
  done

(* Grows at 1/2 live load, checked before every replace, so a table's
   layout, and with it [iter]'s order, depends only on its keys and its
   history of replaces. *)
let replace t key v =
  if key < 0 then invalid_arg "Int_table.replace: negative key";
  if 2 * (t.size + 1) > t.mask + 1 then grow t;
  let i = find_slot t key in
  if i >= 0 then t.vals.(i) <- v
  else begin
    let j = ref (slot_of t key) in
    while t.keys.(!j) <> empty do
      j := (!j + 1) land t.mask
    done;
    t.keys.(!j) <- key;
    t.vals.(!j) <- v;
    t.size <- t.size + 1
  end

(* Free slot [i], then walk the chain after it: a binding whose home
   slot does not lie cyclically in (i, j] may move back into the hole,
   which then moves to its old slot. *)
let remove t key =
  let i = ref (find_slot t key) in
  if !i >= 0 then begin
    let mask = t.mask in
    let j = ref ((!i + 1) land mask) in
    while t.keys.(!j) <> empty do
      let home = slot_of t t.keys.(!j) in
      let stays =
        if !i <= !j then !i < home && home <= !j else !i < home || home <= !j
      in
      if not stays then begin
        t.keys.(!i) <- t.keys.(!j);
        t.vals.(!i) <- t.vals.(!j);
        i := !j
      end;
      j := (!j + 1) land mask
    done;
    t.keys.(!i) <- empty;
    t.size <- t.size - 1
  end

(* Bindings in slot order, by index: the walk stops at the last live
   binding (or the end, should [f] remove some). *)
let fold t ~init ~f =
  let keys = t.keys and vals = t.vals in
  let n = Array.length keys in
  let acc = ref init and left = ref t.size and i = ref 0 in
  while !left > 0 && !i < n do
    let k = keys.(!i) in
    if k >= 0 then begin
      decr left;
      acc := f k vals.(!i) !acc
    end;
    incr i
  done;
  !acc

let iter t f =
  let keys = t.keys and vals = t.vals in
  let n = Array.length keys in
  let left = ref t.size and i = ref 0 in
  while !left > 0 && !i < n do
    let k = keys.(!i) in
    if k >= 0 then begin
      decr left;
      f k vals.(!i)
    end;
    incr i
  done

(* Free the live slots only, stopping at the last one. *)
let reset t =
  let keys = t.keys in
  let i = ref 0 in
  while t.size > 0 do
    if keys.(!i) >= 0 then begin
      keys.(!i) <- empty;
      t.size <- t.size - 1
    end;
    incr i
  done
