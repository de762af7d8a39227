type dir = Sharers of Coreset.t | Owner of Types.core_id

type view = { line : Types.line; dir : dir; dirty : bool }

type room = Present | Free | Evict of view

(* A set's storage grows with the ways it uses, so a run pays for the
   lines it holds rather than for the LLC's capacity. Sets are
   numbered bank-major, then set within the bank. [dirs.(s)] holds set
   [s]'s directory entries, one per way of its storage; its length is
   the set's capacity [cap], which is 0 for a set that has never held
   a line, then 1, 2, 4, ... doubling up to [nways]. A directory entry
   is one int: [-2 - o] when core [o] owns the line, else its sharers —
   on a machine of at most [narrow_cores] cores a bitset of core ids,
   on a wider one the index of a row in [wide], where index 0 is the
   empty set. [slots.(s)] holds
   [2 * cap] immediates: way [w]'s tag at [w] ([-1] encodes an invalid
   slot; the tag is the full line number) and at [cap + w] its LRU
   stamp shifted left by one, with the dirty flag (holds data newer
   than memory) in bit 0. Logical way [w] always sits at position [w]
   and every way at or past [cap] is invalid, so growing a set moves
   no line: the first free way, the victim and the iteration order are
   those of a full-width set. Storage never shrinks. An untouched set
   is two empty arrays, which no operation writes: only [insert]
   writes to a set that holds no line, and it grows the set first.
   Every free or fresh slot's directory entry is [no_sharers]. A set
   costs 3 words per way of storage plus two headers: 5 words for one
   line, 50 for 16 ways. *)
type t = {
  plan : Shard.t;
  nbanks : int;  (* = Shard.count plan: one bank per directory shard *)
  nsets : int;  (* per bank *)
  (* log2 [nbanks] when [nbanks] and [nsets] are both powers of two
     (the default machines), else -1: placement then shifts and masks
     instead of dividing. *)
  bank_bits : int;
  nways : int;
  slots : int array array;
  dirs : int array array;
  (* More than [narrow_cores] cores ([row > 1]): every sharer set is a
     row of [row] words in one flat pool, core [c] at bit
     [c mod narrow_cores] of word [c / narrow_cores], updated in place.
     Row 0 stands for the empty set and is never read as one: its first
     word heads the chain of free rows, each all zeros but for its first
     word, which links the next (0 ends the chain). [[||]] until a line
     is first shared. *)
  row : int;  (* words per sharer set: 1 on a narrow machine *)
  mutable wide : int array;
  mutable count : int;  (* resident lines *)
  mutable tick : int;
  (* The last line located: its set and its way, or -1 when absent.
     A directory decision asks about its request line several times in
     a row; the memo answers all but the first without re-hashing or
     re-scanning. [insert] and [evict], the only operations that move
     a line, keep it exact. *)
  mutable memo_line : int;
  mutable memo_set : int;
  mutable memo_way : int;
}

let no_sharers = 0
let narrow_cores = 62
let[@inline] owner_entry o = -2 - o

let create ~plan ~bank_size_bytes ~ways =
  if ways <= 0 then invalid_arg "Llc.create: ways must be positive";
  let set_bytes = ways * Addr.line_size in
  if bank_size_bytes <= 0 || bank_size_bytes mod set_bytes <> 0 then
    invalid_arg "Llc.create: bank size must be a multiple of ways * line size";
  let banks = Shard.count plan in
  let nsets = bank_size_bytes / set_bytes in
  {
    plan;
    nbanks = banks;
    nsets;
    bank_bits =
      (if Addr.log2_exact nsets < 0 then -1 else Addr.log2_exact banks);
    nways = ways;
    slots = Array.make (banks * nsets) [||];
    dirs = Array.make (banks * nsets) [||];
    row = (Shard.tiles plan + narrow_cores - 1) / narrow_cores;
    wide = [||];
    count = 0;
    tick = 0;
    memo_line = -1;
    memo_set = 0;
    memo_way = -1;
  }

let plan t = t.plan
let banks t = t.nbanks
let sets_per_bank t = t.nsets

(* Line placement: the bank is the line's directory shard (the plan's
   address hash — [line mod nbanks] under the default [Mod] plan), the
   set is the historical [(line / nbanks) mod nsets]. Slots store the
   full line number as the tag, so placement is free to use any hash
   without a tag/line reconstruction becoming ambiguous. *)
let set_index t line =
  (Shard.of_line t.plan line * t.nsets)
  +
  if t.bank_bits >= 0 then (line lsr t.bank_bits) land (t.nsets - 1)
  else line / t.nbanks mod t.nsets

(* The capacity of a set whose slots are [slots]. *)
let cap slots = Array.length slots lsr 1

(* First way in [w, ways) whose tag is [tag], or -1. Top-level, so a
   search allocates no closure. *)
let rec scan slots (tag : int) w ways =
  if w >= ways then -1 else if slots.(w) = tag then w else scan slots tag (w + 1) ways

(* Way of a resident line within set [s], or -1. *)
let find t s line =
  let slots = t.slots.(s) in
  scan slots line 0 (cap slots)

(* Way of [line] within its set, or -1; the set is left in
   [memo_set]. *)
let locate t line =
  if line <> t.memo_line then begin
    let s = set_index t line in
    t.memo_line <- line;
    t.memo_set <- s;
    t.memo_way <- find t s line
  end;
  t.memo_way

(* --- directory entries ------------------------------------------------- *)

(* Core [c]'s word within a sharer set, or a raise when the directory
   has no bit for [c]. *)
let word_of t c =
  if c < 0 || c >= t.row * narrow_cores then
    invalid_arg "Llc: core id out of range";
  c / narrow_cores

let[@inline] bit c = 1 lsl (c mod narrow_cores)

(* The sharers of a non-owner entry [e]. *)
let set_of_entry t e =
  if t.row = 1 then Coreset.of_bits e
  else begin
    let set = ref Coreset.empty in
    if e > 0 then
      for k = 0 to t.row - 1 do
        let w = ref t.wide.((e * t.row) + k) in
        while !w <> 0 do
          let c = (k * narrow_cores) + Lk_engine.Bits.lowest_bit !w in
          set := Coreset.add c !set;
          w := !w land (!w - 1)
        done
      done;
    !set
  end

let dir_of_entry t e =
  if e <= -2 then Owner (-2 - e) else Sharers (set_of_entry t e)

(* A fresh, empty row of the pool. When no row is free the pool
   doubles, chaining the new rows. *)
let wide_row t =
  if Array.length t.wide = 0 || t.wide.(0) = 0 then begin
    let n = Array.length t.wide / t.row in
    let m = Int.max 2 (2 * n) in
    let pool = Array.make (m * t.row) 0 in
    Array.blit t.wide 0 pool 0 (n * t.row);
    for r = Int.max 1 n to m - 2 do
      pool.(r * t.row) <- r + 1
    done;
    pool.(0) <- Int.max 1 n;
    t.wide <- pool
  end;
  let r = t.wide.(0) in
  t.wide.(0) <- t.wide.(r * t.row);
  t.wide.(r * t.row) <- 0;
  r

(* Drop entry [e]'s hold on its row, if any. *)
let release t e =
  if t.row > 1 && e > 0 then begin
    let base = e * t.row in
    for k = base + 1 to base + t.row - 1 do
      t.wide.(k) <- 0
    done;
    t.wide.(base) <- t.wide.(0);
    t.wide.(0) <- e
  end

let entry_of_dir t = function
  | Owner o -> owner_entry o
  | Sharers set ->
    Coreset.iter (fun c -> ignore (word_of t c)) set;
    if Coreset.is_empty set then no_sharers
    else if t.row > 1 then begin
      let r = wide_row t in
      Coreset.iter
        (fun c ->
          let k = (r * t.row) + word_of t c in
          t.wide.(k) <- t.wide.(k) lor bit c)
        set;
      r
    end
    else List.fold_left (fun e c -> e lor (1 lsl c)) 0 (Coreset.elements set)

let view_of t s w =
  let slots = t.slots.(s) in
  {
    line = slots.(w);
    dir = dir_of_entry t t.dirs.(s).(w);
    dirty = slots.(cap slots + w) land 1 <> 0;
  }

let lookup t line =
  let w = locate t line in
  if w < 0 then None else Some (view_of t t.memo_set w)

(* Stamp way [w] of set [s] most recently used, keeping its dirty bit. *)
let bump t s w =
  t.tick <- t.tick + 1;
  let slots = t.slots.(s) in
  let k = cap slots + w in
  slots.(k) <- (t.tick lsl 1) lor (slots.(k) land 1)

let has_l1_copies e = e <> no_sharers

(* Whether way [w] was used before way [best] (or [best] is none), in
   a set of capacity [cap]. *)
let older slots cap w best =
  best < 0 || slots.(cap + w) lsr 1 < slots.(cap + best) lsr 1

(* The victim is the first least-recently-used way with no L1 copies,
   else the first least-recently-used way with some. A set below full
   width has a free way past its storage. *)
let room_for t line =
  if locate t line >= 0 then Present
  else begin
    let s = t.memo_set in
    let slots = t.slots.(s) and dirs = t.dirs.(s) in
    let cap = cap slots in
    let free = ref (cap < t.nways) in
    let best_private = ref (-1) in
    (* lines with L1 copies *)
    let best_quiet = ref (-1) in
    (* lines with no L1 copies *)
    for w = 0 to cap - 1 do
      if slots.(w) = -1 then free := true
      else if has_l1_copies dirs.(w) then begin
        if older slots cap w !best_private then best_private := w
      end
      else if older slots cap w !best_quiet then best_quiet := w
    done;
    if !free then Free
    else
      Evict
        (view_of t s (if !best_quiet >= 0 then !best_quiet else !best_private))
  end

(* Double set [s]'s storage (an untouched set gets one way), keeping
   every way at its position. *)
let grow t s =
  let slots = t.slots.(s) and dirs = t.dirs.(s) in
  let cap = cap slots in
  let cap' = if cap = 0 then 1 else Int.min t.nways (2 * cap) in
  let slots' = Array.make (2 * cap') (-1) in
  Array.blit slots 0 slots' 0 cap;
  Array.blit slots cap slots' cap' cap;
  let dirs' = Array.make cap' no_sharers in
  Array.blit dirs 0 dirs' 0 cap;
  t.slots.(s) <- slots';
  t.dirs.(s) <- dirs'

let insert t line =
  if locate t line >= 0 then invalid_arg "Llc.insert: line already resident";
  let s = t.memo_set in
  let w =
    let slots = t.slots.(s) in
    let cap = cap slots in
    match scan slots (-1) 0 cap with
    | -1 when cap = t.nways -> invalid_arg "Llc.insert: set is full"
    | -1 ->
      grow t s;
      cap
    | w -> w
  in
  let slots = t.slots.(s) in
  slots.(w) <- line;
  (* Clean; [bump] then stamps it most recently used. *)
  slots.(cap slots + w) <- 0;
  t.dirs.(s).(w) <- no_sharers;
  t.count <- t.count + 1;
  t.memo_way <- w;
  bump t s w

(* Way of a resident line within its set ([memo_set]); raises naming
   [name] if absent. *)
let way_exn t line name =
  let w = locate t line in
  if w < 0 then invalid_arg ("Llc." ^ name ^ ": line not resident");
  w

let evict t line =
  let w = way_exn t line "evict" in
  let s = t.memo_set in
  let v = view_of t s w in
  let slots = t.slots.(s) in
  slots.(w) <- -1;
  release t t.dirs.(s).(w);
  t.dirs.(s).(w) <- no_sharers;
  t.count <- t.count - 1;
  t.memo_way <- -1;
  v

let touch t line =
  let w = locate t line in
  if w >= 0 then bump t t.memo_set w

let dir_of t line =
  let w = way_exn t line "dir_of" in
  dir_of_entry t t.dirs.(t.memo_set).(w)

(* Replace [line]'s entry with [e]. *)
let put t line name e =
  let w = way_exn t line name in
  let dirs = t.dirs.(t.memo_set) in
  release t dirs.(w);
  dirs.(w) <- e

let set_dir t line dir = put t line "set_dir" (entry_of_dir t dir)

(* --- the directory, one core at a time -------------------------------- *)

let entry t line = t.dirs.(t.memo_set).(way_exn t line "entry")

let owner t line =
  let e = entry t line in
  if e <= -2 then -2 - e else -1

let unshared t line = entry t line = no_sharers
let set_owner t line o = put t line "set_owner" (owner_entry o)
let clear t line = put t line "clear" no_sharers

let is_sharer t line c =
  let e = entry t line in
  if e <= -2 then false
  else if t.row > 1 then
    e > 0 && t.wide.((e * t.row) + word_of t c) land bit c <> 0
  else e land (1 lsl c) <> 0

let add_sharer t line c =
  let e = entry t line in
  if e <= -2 then invalid_arg "Llc.add_sharer: line is owned";
  let w = word_of t c in
  if t.row > 1 then begin
    let e =
      if e <> no_sharers then e
      else begin
        let r = wide_row t in
        put t line "add_sharer" r;
        r
      end
    in
    let k = (e * t.row) + w in
    t.wide.(k) <- t.wide.(k) lor bit c
  end
  else put t line "add_sharer" (e lor (1 lsl c))

(* Whether words [k, stop) of the pool are all zero. *)
let rec zeros pool k stop = k >= stop || (pool.(k) = 0 && zeros pool (k + 1) stop)

let remove_core t line c =
  let e = entry t line in
  if e <= -2 then begin
    if e = owner_entry c then put t line "remove_core" no_sharers
  end
  else if t.row > 1 then begin
    let k = (e * t.row) + word_of t c in
    if e > 0 && t.wide.(k) land bit c <> 0 then begin
      t.wide.(k) <- t.wide.(k) lxor bit c;
      if zeros t.wide (e * t.row) ((e + 1) * t.row) then
        put t line "remove_core" no_sharers
    end
  end
  else put t line "remove_core" (e land lnot (1 lsl c))

(* A row of words, sized at the first snapshot. *)
type members = { mutable words : int array }

let members () = { words = [||] }

let snapshot t line m =
  let e = entry t line in
  if Array.length m.words <> t.row then m.words <- Array.make t.row 0;
  if t.row = 1 then m.words.(0) <- (if e <= -2 then 0 else e)
  else
    for k = 0 to t.row - 1 do
      m.words.(k) <- (if e > 0 then t.wide.((e * t.row) + k) else 0)
    done

(* The least member in word [w] of [m] or above. *)
let rec next_from words w =
  if w >= Array.length words then -1
  else if words.(w) = 0 then next_from words (w + 1)
  else (w * narrow_cores) + Lk_engine.Bits.lowest_bit words.(w)

let next m c =
  let w = c / narrow_cores in
  if w >= Array.length m.words then -1
  else
    let rest = m.words.(w) lsr (c - (w * narrow_cores)) in
    if rest = 0 then next_from m.words (w + 1)
    else c + Lk_engine.Bits.lowest_bit rest

let count m =
  let n = ref 0 in
  for w = 0 to Array.length m.words - 1 do
    n := !n + Lk_engine.Bits.popcount m.words.(w)
  done;
  !n

let set_dirty t line dirty =
  let w = way_exn t line "set_dirty" in
  let slots = t.slots.(t.memo_set) in
  let k = cap slots + w in
  slots.(k) <- (slots.(k) land lnot 1) lor Bool.to_int dirty

let resident t line = locate t line >= 0

let occupancy t = t.count

(* Every resident view of sets [lo, hi), in set then way order; a
   set's walk stops at its capacity, so untouched sets cost one look. *)
let iter_sets t lo hi f =
  for s = lo to hi - 1 do
    let slots = t.slots.(s) in
    for w = 0 to cap slots - 1 do
      if slots.(w) <> -1 then f (view_of t s w)
    done
  done

let iter t f = iter_sets t 0 (Array.length t.slots) f

(* Per-shard (= per-bank) iteration, for the shard-consistency
   invariants: every resident view of bank [shard], in slot order. *)
let iter_shard t shard f =
  if shard < 0 || shard >= t.nbanks then
    invalid_arg "Llc.iter_shard: shard out of range";
  iter_sets t (shard * t.nsets) ((shard + 1) * t.nsets) f
