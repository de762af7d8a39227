(* Open-addressing hash table specialised to non-negative int keys.

   The generic [Hashtbl] pays for a polymorphic hash call, a boxed
   bucket list cell per binding and a key comparison through [compare]
   on every probe. On the simulator's hot paths (per-access L1
   metadata, per-request directory queues, per-read/write value
   lookups) the keys are plain ints, so this table hashes with one
   multiply (Fibonacci hashing on the high bits), probes linearly in a
   flat array pair and allocates only on growth.

   Slots: keys.(i) >= 0 is a live binding, [empty] a never-used slot,
   [tombstone] a deleted one (probe chains continue through it). Values
   of vacated slots are overwritten with the caller-supplied default so
   the table never keeps a removed value alive. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable size : int;  (* live bindings *)
  mutable used : int;  (* live + tombstones *)
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  dummy : 'a;  (* fills empty value slots *)
}

let empty = -1
let tombstone = -2

(* Odd 62-bit multiplier (Lehmer); the top bits of k * m are
   well-mixed, so take the hash from there. *)
let fib = 0x2545F4914F6CDD1D

let capacity_for n =
  let rec go c = if c >= n then c else go (2 * c) in
  go 16

let create ?(capacity = 16) ~dummy () =
  let cap = capacity_for (Int.max 16 capacity) in
  {
    keys = Array.make cap empty;
    vals = Array.make cap dummy;
    size = 0;
    used = 0;
    mask = cap - 1;
    dummy;
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

let rec resize t cap =
  let okeys = t.keys and ovals = t.vals in
  t.keys <- Array.make cap empty;
  t.vals <- Array.make cap t.dummy;
  t.mask <- cap - 1;
  t.used <- t.size;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let mask = t.mask in
        let rec place j =
          if t.keys.(j) = empty then begin
            t.keys.(j) <- k;
            t.vals.(j) <- ovals.(i)
          end
          else place ((j + 1) land mask)
        in
        place (slot_of t k)
      end)
    okeys

(* Grow at 1/2 live load; rehash in place (same capacity) when
   tombstones alone push the used fraction past 3/4. *)
and maybe_grow t =
  let cap = t.mask + 1 in
  if 2 * (t.size + 1) > cap then resize t (2 * cap)
  else if 4 * (t.used + 1) > 3 * cap then resize t cap

let replace t key v =
  if key < 0 then invalid_arg "Int_table.replace: negative key";
  maybe_grow t;
  let mask = t.mask in
  let rec probe i grave =
    let k = t.keys.(i) in
    if k = key then t.vals.(i) <- v
    else if k = empty then begin
      let i = if grave >= 0 then grave else i in
      if t.keys.(i) = empty then t.used <- t.used + 1;
      t.keys.(i) <- key;
      t.vals.(i) <- v;
      t.size <- t.size + 1
    end
    else if k = tombstone then
      probe ((i + 1) land mask) (if grave >= 0 then grave else i)
    else probe ((i + 1) land mask) grave
  in
  probe (slot_of t key) (-1)

let remove t key =
  let i = find_slot t key in
  if i >= 0 then begin
    t.keys.(i) <- tombstone;
    t.vals.(i) <- t.dummy;
    t.size <- t.size - 1
  end

let iter t f =
  Array.iteri (fun i k -> if k >= 0 then f k t.vals.(i)) t.keys

let fold t ~init ~f =
  let acc = ref init in
  Array.iteri (fun i k -> if k >= 0 then acc := f k t.vals.(i) !acc) t.keys;
  !acc

let reset t =
  Array.fill t.keys 0 (Array.length t.keys) empty;
  Array.fill t.vals 0 (Array.length t.vals) t.dummy;
  t.size <- 0;
  t.used <- 0
