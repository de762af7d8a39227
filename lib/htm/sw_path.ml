module Addr = Lk_coherence.Addr

let slots = 256
let meta_base_line = 1 lsl 20

(* Software-mode gate of the Uninstrumented scheme: a population count
   of running software transactions on its own reserved line (3, next
   to the global clock's line 2). Hardware transactions subscribe to it
   at xbegin and abort unless it reads 0; software transactions RMW it
   up on entry (killing every subscribed hardware transaction) and down
   on exit — mutual exclusion without touching the hardware path. *)
let gate_line = 3
let gate_addr = gate_line * Addr.line_size
let slot_of_line line = line land (slots - 1)
let meta_line_of_slot s = meta_base_line + s
let meta_line line = meta_line_of_slot (slot_of_line line)
let meta_addr_of_slot s = meta_line_of_slot s * Addr.line_size

(* Meta-word encoding: low bit = commit-time write lock, the rest the
   version stamp. The word itself lives in committed memory (so it is
   architectural state the checkers see); this module only tracks the
   per-core sets and which core holds each lock. *)
let locked word = word land 1 = 1
let version_of word = word asr 1
let stamp_word version = version lsl 1
let lock_word word = word lor 1

type t = {
  owners : int array;  (* slot -> core holding its write lock, -1 free *)
  (* Per-core read and write sets as scratch arrays (slot-level,
     deduplicated, so [slots] entries bound each); versions are the
     meta-word version fields observed at first read. A set's array
     opens with [set_words] words of bitset over the slots, so a repeat
     is found in O(1), then holds the set's slots in first-seen order.
     Each core's arrays start empty and double when full, up to [slots]
     entries, so a core that never takes the software path holds
     none. *)
  read_slots : int array array;
  read_vers : int array array;
  read_len : int array;
  write_slots : int array array;
  write_len : int array;
}

let set_words = slots / 32

let create ~cores =
  if cores <= 0 then invalid_arg "Sw_path.create: cores must be positive";
  {
    owners = Array.make slots (-1);
    read_slots = Array.make cores [||];
    read_vers = Array.make cores [||];
    read_len = Array.make cores 0;
    write_slots = Array.make cores [||];
    write_len = Array.make cores 0;
  }

(* A copy of full array [a] of [head] words then entries, with twice
   the entries (at least 8, at most [slots]). *)
let grow ~head a =
  let n = Array.length a - head in
  let b = Array.make (head + Int.min slots (Int.max 8 (2 * n))) 0 in
  Array.blit a 0 b 0 (head + n);
  b

let[@inline] seen set slot = set.(slot lsr 5) land (1 lsl (slot land 31)) <> 0
let[@inline] flip set slot =
  set.(slot lsr 5) <- set.(slot lsr 5) lxor (1 lsl (slot land 31))

(* Clear the bitset of set array [a] holding [n] entries. *)
let unmark a n =
  for i = set_words to set_words + n - 1 do
    flip a a.(i)
  done

let reset t core =
  unmark t.read_slots.(core) t.read_len.(core);
  unmark t.write_slots.(core) t.write_len.(core);
  t.read_len.(core) <- 0;
  t.write_len.(core) <- 0

let note_read t ~core ~slot ~version =
  let rs = t.read_slots.(core) in
  if Array.length rs = 0 || not (seen rs slot) then begin
    let n = t.read_len.(core) in
    if n = Array.length rs - set_words || Array.length rs = 0 then begin
      t.read_slots.(core) <- grow ~head:set_words rs;
      t.read_vers.(core) <- grow ~head:0 t.read_vers.(core)
    end;
    let rs = t.read_slots.(core) in
    flip rs slot;
    rs.(set_words + n) <- slot;
    t.read_vers.(core).(n) <- version;
    t.read_len.(core) <- n + 1
  end

let note_write t ~core ~slot =
  let ws = t.write_slots.(core) in
  if Array.length ws = 0 || not (seen ws slot) then begin
    let n = t.write_len.(core) in
    if n = Array.length ws - set_words || Array.length ws = 0 then
      t.write_slots.(core) <- grow ~head:set_words ws;
    let ws = t.write_slots.(core) in
    flip ws slot;
    ws.(set_words + n) <- slot;
    t.write_len.(core) <- n + 1
  end

let writes t ~core = t.write_len.(core)

let iter_reads t ~core f =
  for i = 0 to t.read_len.(core) - 1 do
    f t.read_slots.(core).(set_words + i) t.read_vers.(core).(i)
  done

(* Locks are taken in ascending slot order (the classic deadlock-free
   discipline), so sort the write set before iterating at commit.
   Insertion sort: the sets are tiny and already deduplicated. *)
let sort_writes t ~core =
  let ws = t.write_slots.(core) in
  for i = set_words + 1 to set_words + t.write_len.(core) - 1 do
    let v = ws.(i) in
    let j = ref (i - 1) in
    while !j >= set_words && ws.(!j) > v do
      ws.(!j + 1) <- ws.(!j);
      decr j
    done;
    ws.(!j + 1) <- v
  done

let iter_writes t ~core f =
  for i = 0 to t.write_len.(core) - 1 do
    f t.write_slots.(core).(set_words + i)
  done

let owner t slot = if t.owners.(slot) < 0 then None else Some t.owners.(slot)

(* Allocation-free variant for the abort-attribution hot path: -1 when
   the slot's write lock is free. *)
let owner_id t slot = t.owners.(slot)

let try_lock t ~core slot =
  if t.owners.(slot) < 0 then begin
    t.owners.(slot) <- core;
    true
  end
  else t.owners.(slot) = core

let unlock t ~core slot =
  if t.owners.(slot) = core then t.owners.(slot) <- -1

let locks_held t ~core =
  let n = ref 0 in
  for s = 0 to slots - 1 do
    if t.owners.(s) = core then incr n
  done;
  !n
