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
     meta-word version fields observed at first read. Each core's
     arrays start empty and double when full, up to [slots], so a core
     that never takes the software path holds none. *)
  read_slots : int array array;
  read_vers : int array array;
  read_len : int array;
  write_slots : int array array;
  write_len : int array;
}

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

(* A copy of full set array [a], twice as long (at least 8 entries, at
   most [slots]). *)
let grow a =
  let n = Array.length a in
  let b = Array.make (Int.min slots (Int.max 8 (2 * n))) 0 in
  Array.blit a 0 b 0 n;
  b

let reset t core =
  t.read_len.(core) <- 0;
  t.write_len.(core) <- 0

let note_read t ~core ~slot ~version =
  let rs = t.read_slots.(core) in
  let n = t.read_len.(core) in
  let seen = ref false in
  for i = 0 to n - 1 do
    if rs.(i) = slot then seen := true
  done;
  if not !seen then begin
    if n = Array.length rs then begin
      t.read_slots.(core) <- grow rs;
      t.read_vers.(core) <- grow t.read_vers.(core)
    end;
    t.read_slots.(core).(n) <- slot;
    t.read_vers.(core).(n) <- version;
    t.read_len.(core) <- n + 1
  end

let note_write t ~core ~slot =
  let ws = t.write_slots.(core) in
  let n = t.write_len.(core) in
  let seen = ref false in
  for i = 0 to n - 1 do
    if ws.(i) = slot then seen := true
  done;
  if not !seen then begin
    if n = Array.length ws then t.write_slots.(core) <- grow ws;
    t.write_slots.(core).(n) <- slot;
    t.write_len.(core) <- n + 1
  end

let writes t ~core = t.write_len.(core)

let iter_reads t ~core f =
  for i = 0 to t.read_len.(core) - 1 do
    f t.read_slots.(core).(i) t.read_vers.(core).(i)
  done

(* Locks are taken in ascending slot order (the classic deadlock-free
   discipline), so sort the write set before iterating at commit.
   Insertion sort: the sets are tiny and already deduplicated. *)
let sort_writes t ~core =
  let ws = t.write_slots.(core) in
  for i = 1 to t.write_len.(core) - 1 do
    let v = ws.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && ws.(!j) > v do
      ws.(!j + 1) <- ws.(!j);
      decr j
    done;
    ws.(!j + 1) <- v
  done

let iter_writes t ~core f =
  for i = 0 to t.write_len.(core) - 1 do
    f t.write_slots.(core).(i)
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
