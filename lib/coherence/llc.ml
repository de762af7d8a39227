type dir = Sharers of Coreset.t | Owner of Types.core_id

type view = { line : Types.line; dir : dir; dirty : bool }

type room = Present | Free | Evict of view

(* Slots are parallel flat arrays, bank-major, then set, then way:
   building the LLC allocates four blocks and no per-way record.
   [tags.(i) = -1] encodes an invalid slot, and the tag is the full
   line number. Every free or fresh slot's directory entry is the one
   shared [no_sharers] constant. *)
type t = {
  plan : Shard.t;
  nbanks : int;  (* = Shard.count plan: one bank per directory shard *)
  nsets : int;  (* per bank *)
  nways : int;
  tags : int array;
  dirs : dir array;
  dirty : Bytes.t;  (* '\001' = holds data newer than memory *)
  used : int array;  (* LRU stamps *)
  mutable tick : int;
}

let no_sharers = Sharers Coreset.empty

let create ~plan ~bank_size_bytes ~ways =
  if ways <= 0 then invalid_arg "Llc.create: ways must be positive";
  let set_bytes = ways * Addr.line_size in
  if bank_size_bytes <= 0 || bank_size_bytes mod set_bytes <> 0 then
    invalid_arg "Llc.create: bank size must be a multiple of ways * line size";
  let banks = Shard.count plan in
  let nsets = bank_size_bytes / set_bytes in
  let n = banks * nsets * ways in
  {
    plan;
    nbanks = banks;
    nsets;
    nways = ways;
    tags = Array.make n (-1);
    dirs = Array.make n no_sharers;
    dirty = Bytes.make n '\000';
    used = Array.make n 0;
    tick = 0;
  }

let plan t = t.plan
let banks t = t.nbanks
let sets_per_bank t = t.nsets

(* Line placement: the bank is the line's directory shard (the plan's
   address hash — [line mod nbanks] under the default [Mod] plan), the
   set is the historical [(line / nbanks) mod nsets]. Slots store the
   full line number as the tag, so placement is free to use any hash
   without a tag/line reconstruction becoming ambiguous. *)
let bank_of t line = Shard.of_line t.plan line
let set_of t line = line / t.nbanks mod t.nsets

let first_way t line = ((bank_of t line * t.nsets) + set_of t line) * t.nways

(* First index in [i, hi) whose tag is [tag], or -1. Top-level, so a
   search allocates no closure. *)
let rec scan tags tag i hi =
  if i >= hi then -1 else if tags.(i) = tag then i else scan tags tag (i + 1) hi

(* Slot index of a resident line, or -1. *)
let find_slot t line =
  let lo = first_way t line in
  scan t.tags line lo (lo + t.nways)

let is_dirty t i = Bytes.get t.dirty i <> '\000'

let view_of t i = { line = t.tags.(i); dir = t.dirs.(i); dirty = is_dirty t i }

let lookup t line =
  let i = find_slot t line in
  if i < 0 then None else Some (view_of t i)

let bump t i =
  t.tick <- t.tick + 1;
  t.used.(i) <- t.tick

let has_l1_copies t i =
  match t.dirs.(i) with
  | Owner _ -> true
  | Sharers s -> not (Coreset.is_empty s)

(* Whether slot [i] was used before slot [best] (or [best] is none). *)
let older t i best = best < 0 || t.used.(i) < t.used.(best)

(* The victim is the first least-recently-used way with no L1 copies,
   else the first least-recently-used way with some. *)
let room_for t line =
  if find_slot t line >= 0 then Present
  else begin
    let lo = first_way t line in
    let free = ref false in
    let best_private = ref (-1) in
    (* lines with L1 copies *)
    let best_quiet = ref (-1) in
    (* lines with no L1 copies *)
    for i = lo to lo + t.nways - 1 do
      if t.tags.(i) = -1 then free := true
      else if has_l1_copies t i then begin
        if older t i !best_private then best_private := i
      end
      else if older t i !best_quiet then best_quiet := i
    done;
    if !free then Free
    else
      Evict
        (view_of t (if !best_quiet >= 0 then !best_quiet else !best_private))
  end

let insert t line =
  if find_slot t line >= 0 then invalid_arg "Llc.insert: line already resident";
  let lo = first_way t line in
  let i = scan t.tags (-1) lo (lo + t.nways) in
  if i < 0 then invalid_arg "Llc.insert: set is full";
  t.tags.(i) <- line;
  t.dirs.(i) <- no_sharers;
  Bytes.set t.dirty i '\000';
  bump t i

let slot_exn t line name =
  let i = find_slot t line in
  if i < 0 then invalid_arg ("Llc." ^ name ^ ": line not resident");
  i

let evict t line =
  let i = slot_exn t line "evict" in
  let v = view_of t i in
  t.tags.(i) <- -1;
  t.dirs.(i) <- no_sharers;
  Bytes.set t.dirty i '\000';
  v

let touch t line =
  let i = find_slot t line in
  if i >= 0 then bump t i

let dir_of t line = t.dirs.(slot_exn t line "dir_of")

let set_dir t line dir = t.dirs.(slot_exn t line "set_dir") <- dir

let set_dirty t line dirty =
  Bytes.set t.dirty (slot_exn t line "set_dirty")
    (if dirty then '\001' else '\000')

let resident t line = find_slot t line >= 0

let occupancy t =
  Array.fold_left (fun acc tag -> if tag = -1 then acc else acc + 1) 0 t.tags

let iter t f =
  for i = 0 to Array.length t.tags - 1 do
    if t.tags.(i) <> -1 then f (view_of t i)
  done

(* Per-shard (= per-bank) iteration, for the shard-consistency
   invariants: every resident view of bank [shard], in slot order. *)
let iter_shard t shard f =
  if shard < 0 || shard >= t.nbanks then
    invalid_arg "Llc.iter_shard: shard out of range";
  let per_bank = t.nsets * t.nways in
  for i = shard * per_bank to ((shard + 1) * per_bank) - 1 do
    if t.tags.(i) <> -1 then f (view_of t i)
  done
