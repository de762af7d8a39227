type state = M | E | S

type view = {
  line : Types.line;
  state : state;
  dirty : bool;
  tx_read : bool;
  tx_write : bool;
}

(* Slots are one flat array of immediates, row-major by set, two ints
   per slot: slot [i]'s tag at [2i] ([-1] encodes an invalid slot) and
   at [2i + 1] its LRU stamp shifted left by 5 over its 5 flag bits
   (the state and the dirty/tx bits). A set's tags, states and stamps
   thus sit side by side (64 bytes at 4 ways), so a lookup, an update
   and a victim scan touch one block of host memory, with no per-way
   record. The array is allocated on the first insert, so a core that
   never runs a thread pays for no slots. Until then it is empty and
   [span], the ways a lookup scans per set, is 0: every scan ends
   before it reads a slot, so an unfilled cache answers as an
   all-invalid one with no test of its own on the lookup path. *)
type t = {
  nsets : int;
  (* log2 [nsets] when it is a power of two (every configured L1),
     else -1: a lookup then splits a line into set and tag by mask and
     shift instead of two divisions. *)
  set_bits : int;
  nways : int;
  mutable span : int;  (* 0 before the first insert, then [nways] *)
  mutable slots : int array;
  mutable tick : int;
  (* Lines with a tx bit set, for O(tx-set) commit/abort clearing.
     Kept as a sorted array maintained incrementally (binary-search
     insert/delete), so conflict queries walk it in line order without
     re-sorting and membership tests cost one binary search instead of
     a polymorphic hash. Allocated on the first tracked line. *)
  mutable tx_lines_sorted : int array;
  mutable tx_count : int;
}

(* Flag bits: bits 0-1 the state (M 0, E 1, S 2), then dirty, tx_read,
   tx_write. *)
let dirty_bit = 4
let tx_read_bit = 8
let tx_write_bit = 16
let tx_bits = tx_read_bit lor tx_write_bit

(* The state bits of [state], plus dirty for [M], which implies it. *)
let state_flags = function M -> dirty_bit | E -> 1 | S -> 2
let state_of_code = function 0 -> M | 1 -> E | _ -> S

let flag_bits = 5
let flag_mask = (1 lsl flag_bits) - 1

let tag t i = t.slots.(2 * i)
let flags t i = t.slots.((2 * i) + 1) land flag_mask
let used t i = t.slots.((2 * i) + 1) lsr flag_bits

let set_flags t i f =
  let k = (2 * i) + 1 in
  t.slots.(k) <- (t.slots.(k) land lnot flag_mask) lor f

let create ~size_bytes ~ways =
  if ways <= 0 then invalid_arg "L1_cache.create: ways must be positive";
  let set_bytes = ways * Addr.line_size in
  if size_bytes <= 0 || size_bytes mod set_bytes <> 0 then
    invalid_arg "L1_cache.create: size must be a multiple of ways * line size";
  {
    nsets = size_bytes / set_bytes;
    set_bits = Addr.log2_exact (size_bytes / set_bytes);
    nways = ways;
    span = 0;
    slots = [||];
    tick = 0;
    tx_lines_sorted = [||];
    tx_count = 0;
  }

(* Give the cache its slots, all invalid. *)
let allocate t =
  let slots = Array.make (2 * t.nsets * t.nways) 0 in
  for i = 0 to (t.nsets * t.nways) - 1 do
    slots.(2 * i) <- -1
  done;
  t.slots <- slots;
  t.span <- t.nways

(* --- tracked-set maintenance ----------------------------------------- *)

(* Index of [line] in the sorted prefix, or [- insertion_point - 1]. *)
let tx_search t line =
  let lo = ref 0 and hi = ref t.tx_count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.tx_lines_sorted.(mid) < line then lo := mid + 1 else hi := mid
  done;
  if !lo < t.tx_count && t.tx_lines_sorted.(!lo) = line then !lo
  else - !lo - 1

let tx_track t line =
  let i = tx_search t line in
  if i < 0 then begin
    let at = -i - 1 in
    let cap = Array.length t.tx_lines_sorted in
    if t.tx_count = cap then begin
      let bigger = Array.make (Int.max 64 (2 * cap)) 0 in
      Array.blit t.tx_lines_sorted 0 bigger 0 t.tx_count;
      t.tx_lines_sorted <- bigger
    end;
    if at < t.tx_count then
      Array.blit t.tx_lines_sorted at t.tx_lines_sorted (at + 1)
        (t.tx_count - at);
    t.tx_lines_sorted.(at) <- line;
    t.tx_count <- t.tx_count + 1
  end

let tx_untrack t line =
  let i = tx_search t line in
  if i >= 0 then begin
    if i + 1 < t.tx_count then
      Array.blit t.tx_lines_sorted (i + 1) t.tx_lines_sorted i
        (t.tx_count - i - 1);
    t.tx_count <- t.tx_count - 1
  end

let sets t = t.nsets
let ways t = t.nways

let set_of t line =
  if t.set_bits >= 0 then line land (t.nsets - 1) else line mod t.nsets

let tag_of t line =
  if t.set_bits >= 0 then line lsr t.set_bits else line / t.nsets

(* First slot in [i, hi) whose tag is [tag], or -1. Top-level, so a
   search allocates no closure. *)
let rec scan slots (tag : int) i hi =
  if i >= hi then -1
  else if slots.(2 * i) = tag then i
  else scan slots tag (i + 1) hi

(* Slot index of a resident line, or -1. *)
let find_slot t line =
  let lo = set_of t line * t.nways in
  scan t.slots (tag_of t line) lo (lo + t.span)

let view_of t i =
  let f = flags t i in
  {
    line = (tag t i * t.nsets) + (i / t.nways);
    state = state_of_code (f land 3);
    dirty = f land dirty_bit <> 0;
    tx_read = f land tx_read_bit <> 0;
    tx_write = f land tx_write_bit <> 0;
  }

let lookup t line =
  let i = find_slot t line in
  if i < 0 then None else Some (view_of t i)

let absent = -1

let flags_of t line =
  let i = find_slot t line in
  if i < 0 then absent else flags t i

let exclusive f = f land 3 <> 2
let dirty f = f land dirty_bit <> 0
let tx_write f = f land tx_write_bit <> 0
let in_tx f = f land tx_bits <> 0

let bump t i =
  t.tick <- t.tick + 1;
  let k = (2 * i) + 1 in
  t.slots.(k) <- (t.tick lsl flag_bits) lor (t.slots.(k) land flag_mask)

let probe = find_slot
let flags_at = flags
let touch_at = bump

let touch t line =
  let i = find_slot t line in
  if i >= 0 then bump t i

(* Whether slot [i] was used before slot [best] (or [best] is none). *)
let older t i best = best < 0 || used t i < used t best

(* The victim is the first least-recently-used non-transactional way,
   else the first least-recently-used transactional one: its slot, or
   -1 when a way is free. An unfilled cache has every way free. *)
let victim_slot t line =
  let lo = set_of t line * t.nways in
  let free = ref (t.span < t.nways) in
  let best_non_tx = ref (-1) in
  let best_tx = ref (-1) in
  for i = lo to lo + t.span - 1 do
    if tag t i = -1 then free := true
    else if flags t i land tx_bits <> 0 then begin
      if older t i !best_tx then best_tx := i
    end
    else if older t i !best_non_tx then best_non_tx := i
  done;
  if !free then -1 else if !best_non_tx >= 0 then !best_non_tx else !best_tx

let victim t line =
  let v = victim_slot t line in
  if v < 0 then -1 else (tag t v * t.nsets) + (v / t.nways)

let insert t line state =
  if find_slot t line >= 0 then
    invalid_arg "L1_cache.insert: line already resident";
  if t.span = 0 then allocate t;
  let lo = set_of t line * t.nways in
  let i = scan t.slots (-1) lo (lo + t.nways) in
  if i < 0 then invalid_arg "L1_cache.insert: set is full";
  t.slots.(2 * i) <- tag_of t line;
  set_flags t i (state_flags state);
  bump t i

let slot_exn t line name =
  let i = find_slot t line in
  if i < 0 then invalid_arg ("L1_cache." ^ name ^ ": line not resident");
  i

let set_state_at t i state =
  set_flags t i ((flags t i land lnot 3) lor state_flags state)

let set_state t line state = set_state_at t (slot_exn t line "set_state") state

let mark_dirty t line =
  let i = slot_exn t line "mark_dirty" in
  set_flags t i (flags t i lor dirty_bit)

let clear_dirty t line =
  let i = slot_exn t line "clear_dirty" in
  set_flags t i (flags t i land lnot dirty_bit)

(* A slot with a tx bit is already tracked. *)
let mark_tx_at t i line ~write =
  let f = flags t i in
  set_flags t i (f lor if write then tx_write_bit else tx_read_bit);
  if f land tx_bits = 0 then tx_track t line

let mark_tx t line ~write = mark_tx_at t (slot_exn t line "mark_tx") line ~write

(* Invalidate slot [i], returning its flags. *)
let invalidate t i =
  let f = flags t i in
  t.slots.(2 * i) <- -1;
  set_flags t i (f land 3);
  f

let remove t line =
  let f = invalidate t (slot_exn t line "remove") in
  tx_untrack t line;
  f

let resident t line = find_slot t line >= 0

(* The tracked set is already in ascending line order; collecting back
   to front builds the sorted view list with no sort and no reversal. *)
let tx_lines t =
  let acc = ref [] in
  for k = t.tx_count - 1 downto 0 do
    let i = find_slot t t.tx_lines_sorted.(k) in
    if i >= 0 && flags t i land tx_bits <> 0 then acc := view_of t i :: !acc
  done;
  !acc

(* One pass over the tracked set in line order. Dropped slots are
   invalidated in place, not untracked one by one: the whole set is
   emptied at the end. *)
let clear_tx t ~drop_written on_drop =
  let cleared = ref 0 in
  for k = 0 to t.tx_count - 1 do
    let line = t.tx_lines_sorted.(k) in
    let i = find_slot t line in
    if i >= 0 then begin
      let f = flags t i in
      if in_tx f then begin
        incr cleared;
        if drop_written && tx_write f then begin
          ignore (invalidate t i);
          on_drop line
        end
        else set_flags t i (f land lnot tx_bits)
      end
    end
  done;
  t.tx_count <- 0;
  !cleared

let slot_count t = Array.length t.slots / 2

let occupancy t =
  let n = ref 0 in
  for i = 0 to slot_count t - 1 do
    if tag t i <> -1 then incr n
  done;
  !n

let tx_count t = t.tx_count

let iter t f =
  for i = 0 to slot_count t - 1 do
    if tag t i <> -1 then f (view_of t i)
  done
