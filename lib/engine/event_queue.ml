(* The pending-event set: a calendar-queue / timing-wheel hybrid tuned
   for the discrete-event hot loop, where almost every event lands
   within a few hundred cycles of the clock. A "near" wheel of
   [wheel_size] power-of-two buckets (one simulated cycle per bucket)
   absorbs those in O(1), and a small overflow min-heap holds the far
   future. Entries pop in (time, seq) order: a monotonically increasing
   sequence number breaks same-cycle ties, which yields stable FIFO
   behaviour for same-cycle events.

   Storage (the point of the layout): an entry is an int id into one
   flat [int array], four ints per entry side by side — its time, seq,
   [next] link and int payload — so touching an entry touches one
   block of host memory. The wheel's slot heads and tails and the far heap
   hold ids, so every store a schedule or a pop makes is an unboxed int
   store: no write barrier, and nothing popped stays reachable. Ids are
   recycled through a freelist chained in [next]; the store grows only
   when every id is in use, so steady-state schedule/pop cycles
   allocate nothing. An occupancy bitmap over the wheel's slots lets
   [advance] skip runs of empty cycles a word at a time. *)

(* End of a chain (slot FIFO or freelist), and an empty wheel slot. *)
let nil = -1

(* Near-wheel geometry: one bucket per cycle, [wheel_size] cycles of
   horizon. Delays in the simulator cluster well under this (L1 hits,
   NoC hops, memory latency ~100, backoffs up to ~512), so the overflow
   heap stays tiny. *)
let wheel_bits = 10
let wheel_size = 1 lsl wheel_bits
let wheel_mask = wheel_size - 1

(* Occupancy bitmap words: 32 slots per word, like [Coreset]. *)
let occ_bits = 5
let occ_mask = 31

type t = {
  mutable next_seq : int;  (* insertion counter: the same-time tie-break *)
  (* The entry store, indexed by id. [next] chains a wheel slot's FIFO
     or, for a free id, the freelist headed by [free]. *)
  mutable store : int array;
  mutable free : int;
  (* The far-overflow region: ids ordered by (time, seq) in
     [heap.(0 .. hsize - 1)]. *)
  mutable heap : int array;
  mutable hsize : int;
  (* The near window is [limit - wheel_size, limit); slot
     [t land wheel_mask] chains exactly the events of cycle [t] in FIFO
     order. [cur] is the next candidate cycle: every near entry has
     time >= cur (adds below cur pull it back). Bit [i] of [occ] is set
     exactly when slot [i] chains an event. *)
  head : int array;
  tail : int array;
  occ : int array;
  mutable near_count : int;  (* with [hsize], the live entries *)
  mutable cur : int;
  mutable limit : int;
}

(* The hot paths index without bounds checks. Each index is in range by
   construction: an id is below the store's capacity, a slot is masked
   by [wheel_mask], a bitmap word is a slot over 32. *)
let[@inline] get (a : int array) i = Array.unsafe_get a i
let[@inline] set (a : int array) i (v : int) = Array.unsafe_set a i v

(* Entry [id]'s fields in [store]. *)
let[@inline] time q id = get q.store (4 * id)
let[@inline] seq q id = get q.store ((4 * id) + 1)
let[@inline] next q id = get q.store ((4 * id) + 2)
let[@inline] set_next q id n = set q.store ((4 * id) + 2) n

let create () =
  {
    next_seq = 0;
    store = [||];
    free = nil;
    heap = [||];
    hsize = 0;
    head = Array.make wheel_size nil;
    tail = Array.make wheel_size nil;
    occ = Array.make (wheel_size lsr occ_bits) 0;
    near_count = 0;
    cur = 0;
    limit = wheel_size;
  }

let length q = q.near_count + q.hsize

(* --- entry store ----------------------------------------------------- *)

(* Every id is in use: grow the store and chain the new ids onto the
   (empty) freelist, lowest first. *)
let grow q =
  let cap = Array.length q.store / 4 in
  let ncap = Int.max 16 (2 * cap) in
  let b = Array.make (4 * ncap) nil in
  Array.blit q.store 0 b 0 (4 * cap);
  q.store <- b;
  for id = cap to ncap - 2 do
    set_next q id (id + 1)
  done;
  q.free <- cap

let[@inline] alloc q ~time ~seq ev =
  if q.free = nil then grow q;
  let id = q.free in
  let k = 4 * id in
  q.free <- get q.store (k + 2);
  set q.store k time;
  set q.store (k + 1) seq;
  set q.store (k + 3) ev;
  id

(* Return [id] to the freelist and its payload. *)
let[@inline] release q id =
  set_next q id q.free;
  q.free <- id;
  get q.store ((4 * id) + 3)

(* --- far heap: a binary min-heap on ids ------------------------------- *)

let lt q a b =
  let ta = time q a and tb = time q b in
  ta < tb || (ta = tb && seq q a < seq q b)

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let e = q.heap.(i) and p = q.heap.(parent) in
    if lt q e p then begin
      q.heap.(i) <- p;
      q.heap.(parent) <- e;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.hsize && lt q q.heap.(l) q.heap.(!smallest) then smallest := l;
  if r < q.hsize && lt q q.heap.(r) q.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let e = q.heap.(i) in
    q.heap.(i) <- q.heap.(!smallest);
    q.heap.(!smallest) <- e;
    sift_down q !smallest
  end

let heap_push q id =
  let capacity = Array.length q.heap in
  if q.hsize = capacity then begin
    let narr = Array.make (Int.max 16 (2 * capacity)) nil in
    Array.blit q.heap 0 narr 0 q.hsize;
    q.heap <- narr
  end;
  q.heap.(q.hsize) <- id;
  q.hsize <- q.hsize + 1;
  sift_up q (q.hsize - 1)

(* Remove the earliest id: move the last id to the root and sift it
   down. *)
let heap_pop q =
  let id = q.heap.(0) in
  q.hsize <- q.hsize - 1;
  if q.hsize > 0 then begin
    q.heap.(0) <- q.heap.(q.hsize);
    sift_down q 0
  end;
  id

(* --- wheel ----------------------------------------------------------- *)

(* Append [id] to the FIFO chain of its cycle. Entries arrive here in
   nondecreasing seq order for any given cycle (direct adds are issued
   in seq order, and refills drain the far heap in (time, seq) order
   before any later direct add), so chain order is seq order. *)
let[@inline] wheel_append q id =
  let time = time q id in
  let i = time land wheel_mask in
  let tail = get q.tail i in
  if tail = nil then begin
    set q.head i id;
    let w = i lsr occ_bits in
    set q.occ w (get q.occ w lor (1 lsl (i land occ_mask)))
  end
  else set_next q tail id;
  set q.tail i id;
  set_next q id nil;
  if time < q.cur then q.cur <- time;
  q.near_count <- q.near_count + 1

(* Move every far event that fits into the window ending at [q.limit]
   back into the wheel, in (time, seq) order. *)
let drain_far q =
  while q.hsize > 0 && time q q.heap.(0) < q.limit do
    wheel_append q (heap_pop q)
  done

(* The near region emptied: recenter the window on the earliest far
   event. Only called with far events pending. *)
let rebase q =
  let tmin = time q q.heap.(0) in
  q.cur <- tmin;
  q.limit <- tmin + wheel_size;
  drain_far q

(* An add landed below the current window (possible only through the
   raw queue API — the kernel never schedules in the past). Spill the
   whole near region into the far heap and rebuild the window around
   the new time. O(wheel_size + n log n), but never hit by [Sim]. *)
let reshuffle q ~time =
  for i = 0 to wheel_size - 1 do
    let id = ref q.head.(i) in
    while !id <> nil do
      let n = next q !id in
      heap_push q !id;
      id := n
    done;
    q.head.(i) <- nil;
    q.tail.(i) <- nil
  done;
  Array.fill q.occ 0 (Array.length q.occ) 0;
  q.near_count <- 0;
  q.cur <- time;
  q.limit <- time + wheel_size;
  drain_far q

(* The first occupied slot in bitmap word [w] masked by [mask], or
   past it, wrapping. Requires a near event. *)
let rec occupied occ w mask =
  let bits = get occ w land mask in
  if bits <> 0 then (w lsl occ_bits) + Bits.lowest_bit bits
  else occupied occ ((w + 1) land (Array.length occ - 1)) (-1)

(* Bring the earliest cycle to [cur]: rebase onto the far heap if the
   near region is empty, then move [cur] to the next occupied slot.
   Every near entry lives at a slot in [cur, limit), so the first
   occupied slot from [cur]'s, wrapping, is the earliest; far events
   lie at or past [limit]. *)
let advance q =
  if q.near_count = 0 then rebase q;
  let i = q.cur land wheel_mask in
  if get q.head i = nil then begin
    let j = occupied q.occ (i lsr occ_bits) (-1 lsl (i land occ_mask)) in
    q.cur <- q.cur + ((j - i) land wheel_mask);
    (* Slide the window along: the slots behind [cur] are empty, so it
       can end a full wheel past [cur], and the far events it now
       covers move in before any add can target their cycles. *)
    let limit = q.cur + wheel_size in
    if limit > q.limit then begin
      q.limit <- limit;
      drain_far q
    end
  end

(* Unlink [id], the head of slot [i]'s chain or the successor of
   [prev], clearing the slot's bit when its chain empties. *)
let[@inline] unlink q i ~prev id =
  let n = next q id in
  if prev = nil then set q.head i n else set_next q prev n;
  if n = nil then begin
    set q.tail i prev;
    if prev = nil then begin
      let w = i lsr occ_bits in
      set q.occ w (get q.occ w land lnot (1 lsl (i land occ_mask)))
    end
  end;
  q.near_count <- q.near_count - 1;
  release q id

(* --- queue API ------------------------------------------------------- *)

let add q ~time ev =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let id = alloc q ~time ~seq ev in
  if time >= q.limit then heap_push q id
  else if time >= q.limit - wheel_size then wheel_append q id
  else begin
    reshuffle q ~time;
    wheel_append q id
  end

let no_event = min_int

(* Peek without an [option] box. This also rebases/advances, so a
   following [pop_payload] finds the earliest event at [q.cur]. *)
let next_time q =
  if length q = 0 then no_event
  else begin
    advance q;
    q.cur
  end

(* The earliest event's payload. After [next_time] the slot at [cur]
   already chains it (the near events all lie at or after [cur]), so
   only an empty slot there needs [advance]. *)
let pop_payload q =
  if length q = 0 then invalid_arg "Event_queue.pop_payload: empty queue";
  if get q.head (q.cur land wheel_mask) = nil then advance q;
  let i = q.cur land wheel_mask in
  unlink q i ~prev:nil (get q.head i)

(* --- schedule exploration hooks -------------------------------------- *)

(* Size of the "runnable set": the group of pending events sharing the
   earliest time. After [advance] the slot at [cur] chains exactly the
   events of the earliest cycle, in FIFO (= seq) order; far-heap
   entries all have time >= limit > cur. *)
let runnable q =
  if length q = 0 then 0
  else begin
    advance q;
    let n = ref 0 in
    let id = ref q.head.(q.cur land wheel_mask) in
    while !id <> nil do
      incr n;
      id := next q !id
    done;
    !n
  end

let pop_payload_nth q k =
  if length q = 0 then invalid_arg "Event_queue.pop_payload_nth: empty queue";
  if k < 0 then invalid_arg "Event_queue.pop_payload_nth: negative index";
  if k = 0 then pop_payload q
  else begin
    advance q;
    let i = q.cur land wheel_mask in
    (* Walk to the k-th id of the cycle's FIFO chain and unlink it,
       patching head/tail as needed. *)
    let prev = ref nil in
    let id = ref q.head.(i) in
    for _ = 1 to k do
      if next q !id = nil then
        invalid_arg "Event_queue.pop_payload_nth: index out of range";
      prev := !id;
      id := next q !id
    done;
    unlink q i ~prev:!prev !id
  end

(* Drop every pending event: free every id (lowest first, as a fresh
   store hands them out). *)
let clear q =
  let cap = Array.length q.store / 4 in
  for id = 0 to cap - 1 do
    set_next q id (if id = cap - 1 then nil else id + 1)
  done;
  q.free <- (if cap = 0 then nil else 0);
  q.hsize <- 0;
  Array.fill q.head 0 wheel_size nil;
  Array.fill q.tail 0 wheel_size nil;
  Array.fill q.occ 0 (Array.length q.occ) 0;
  q.near_count <- 0;
  q.cur <- 0;
  q.limit <- wheel_size
