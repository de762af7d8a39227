(* The pending-event set: a calendar-queue / timing-wheel hybrid tuned
   for the discrete-event hot loop, where almost every event lands
   within a few hundred cycles of the clock. A "near" wheel of
   [wheel_size] power-of-two buckets (one simulated cycle per bucket)
   absorbs those in O(1), and a small overflow min-heap holds the far
   future. Entries pop in (time, seq) order: a monotonically increasing
   sequence number breaks same-cycle ties, which yields stable FIFO
   behaviour for same-cycle events.

   Storage (the point of the layout): an entry is an int id into a
   flat store of parallel arrays — [time], [seq] and [next] are [int
   array]s, the payloads one ['a array]. The wheel's slot heads and
   tails and the far heap hold ids, so every link a schedule or a pop
   rewrites is an unboxed int store, which needs no write barrier. A
   schedule makes one barrier store (the payload) and a pop one more
   (clearing the payload slot with an immediate, so nothing popped stays
   reachable). Ids are recycled through a freelist chained in [next];
   the store grows only when every id is in use, so steady-state
   schedule/pop cycles allocate nothing. *)

(* Placeholder written into free payload slots so the GC can reclaim
   popped payloads. The immediate 0 is a valid word of any type from
   the GC's point of view and is never read back: pops copy the payload
   out before its slot is cleared. *)
let absent : unit -> 'a = fun () -> Obj.magic 0

(* End of a chain (slot FIFO or freelist), and an empty wheel slot. *)
let nil = -1

(* Near-wheel geometry: one bucket per cycle, [wheel_size] cycles of
   horizon. Delays in the simulator cluster well under this (L1 hits,
   NoC hops, memory latency ~100, backoffs up to ~512), so the overflow
   heap stays tiny. *)
let wheel_bits = 10
let wheel_size = 1 lsl wheel_bits
let wheel_mask = wheel_size - 1

type 'a t = {
  mutable next_seq : int;  (* insertion counter: the same-time tie-break *)
  mutable count : int;  (* total live entries, both regions *)
  (* The entry store, indexed by id. [next] chains a wheel slot's FIFO
     or, for a free id, the freelist headed by [free]. *)
  mutable time : int array;
  mutable seq : int array;
  mutable next : int array;
  mutable payload : 'a array;
  mutable free : int;
  (* The far-overflow region: ids ordered by (time, seq) in
     [heap.(0 .. hsize - 1)]. *)
  mutable heap : int array;
  mutable hsize : int;
  (* The near window is [limit - wheel_size, limit); slot
     [t land wheel_mask] chains exactly the events of cycle [t] in FIFO
     order. [cur] is the next candidate cycle: every near entry has
     time >= cur (adds below cur pull it back). *)
  head : int array;
  tail : int array;
  mutable near_count : int;
  mutable cur : int;
  mutable limit : int;
}

let create () =
  {
    next_seq = 0;
    count = 0;
    time = [||];
    seq = [||];
    next = [||];
    payload = [||];
    free = nil;
    heap = [||];
    hsize = 0;
    head = Array.make wheel_size nil;
    tail = Array.make wheel_size nil;
    near_count = 0;
    cur = 0;
    limit = wheel_size;
  }

let length q = q.count

(* --- entry store ----------------------------------------------------- *)

(* Every id is in use: grow the store and chain the new ids onto the
   (empty) freelist, lowest first. *)
let grow q =
  let cap = Array.length q.time in
  let ncap = Int.max 16 (2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  q.time <- extend q.time 0;
  q.seq <- extend q.seq 0;
  q.payload <- extend q.payload (absent ());
  q.next <- extend q.next nil;
  for id = cap to ncap - 2 do
    q.next.(id) <- id + 1
  done;
  q.free <- cap

let alloc q ~time ~seq payload =
  if q.free = nil then grow q;
  let id = q.free in
  q.free <- q.next.(id);
  q.time.(id) <- time;
  q.seq.(id) <- seq;
  q.payload.(id) <- payload;
  id

(* Take the payload out of [id] and return the id to the freelist. *)
let release q id =
  let payload = q.payload.(id) in
  q.payload.(id) <- absent ();
  q.next.(id) <- q.free;
  q.free <- id;
  payload

(* --- far heap: a binary min-heap on ids ------------------------------- *)

let lt q a b =
  let ta = q.time.(a) and tb = q.time.(b) in
  ta < tb || (ta = tb && q.seq.(a) < q.seq.(b))

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
let wheel_append q id =
  let time = q.time.(id) in
  let i = time land wheel_mask in
  let tail = q.tail.(i) in
  if tail = nil then q.head.(i) <- id else q.next.(tail) <- id;
  q.tail.(i) <- id;
  q.next.(id) <- nil;
  if time < q.cur then q.cur <- time;
  q.near_count <- q.near_count + 1

(* Move every far event that fits into the window ending at [q.limit]
   back into the wheel, in (time, seq) order. *)
let drain_far q =
  while q.hsize > 0 && q.time.(q.heap.(0)) < q.limit do
    wheel_append q (heap_pop q)
  done

(* The near region emptied: recenter the window on the earliest far
   event. Only called with far events pending. *)
let rebase q =
  let tmin = q.time.(q.heap.(0)) in
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
      let n = q.next.(!id) in
      heap_push q !id;
      id := n
    done;
    q.head.(i) <- nil;
    q.tail.(i) <- nil
  done;
  q.near_count <- 0;
  q.cur <- time;
  q.limit <- time + wheel_size;
  drain_far q

(* Bring the earliest cycle to [cur]: rebase onto the far heap if the
   near region is empty, then step [cur] to the next occupied slot.
   Requires count > 0; terminates within [wheel_size] steps because
   every near entry lives at a slot in [cur, limit). *)
let advance q =
  if q.near_count = 0 then rebase q;
  while q.head.(q.cur land wheel_mask) = nil do
    q.cur <- q.cur + 1
  done

(* --- queue API ------------------------------------------------------- *)

let add q ~time payload =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  q.count <- q.count + 1;
  let id = alloc q ~time ~seq payload in
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
  if q.count = 0 then no_event
  else begin
    advance q;
    q.cur
  end

(* Pop without a tuple or [Some] box: the payload is returned bare. *)
let pop_payload q =
  if q.count = 0 then invalid_arg "Event_queue.pop_payload: empty queue";
  q.count <- q.count - 1;
  advance q;
  let i = q.cur land wheel_mask in
  let id = q.head.(i) in
  let n = q.next.(id) in
  q.head.(i) <- n;
  if n = nil then q.tail.(i) <- nil;
  q.near_count <- q.near_count - 1;
  release q id

(* --- schedule exploration hooks -------------------------------------- *)

(* Size of the "runnable set": the group of pending events sharing the
   earliest time. After [advance] the slot at [cur] chains exactly the
   events of the earliest cycle, in FIFO (= seq) order; far-heap
   entries all have time >= limit > cur. *)
let runnable q =
  if q.count = 0 then 0
  else begin
    advance q;
    let n = ref 0 in
    let id = ref q.head.(q.cur land wheel_mask) in
    while !id <> nil do
      incr n;
      id := q.next.(!id)
    done;
    !n
  end

let pop_payload_nth q k =
  if q.count = 0 then invalid_arg "Event_queue.pop_payload_nth: empty queue";
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
      if q.next.(!id) = nil then
        invalid_arg "Event_queue.pop_payload_nth: index out of range";
      prev := !id;
      id := q.next.(!id)
    done;
    let n = q.next.(!id) in
    if !prev = nil then q.head.(i) <- n else q.next.(!prev) <- n;
    if n = nil then q.tail.(i) <- !prev;
    q.near_count <- q.near_count - 1;
    q.count <- q.count - 1;
    release q !id
  end

(* Drop every pending event: free every id (lowest first, as a fresh
   store hands them out) and clear every payload slot. *)
let clear q =
  let cap = Array.length q.time in
  Array.fill q.payload 0 cap (absent ());
  for id = 0 to cap - 1 do
    q.next.(id) <- (if id = cap - 1 then nil else id + 1)
  done;
  q.free <- (if cap = 0 then nil else 0);
  q.hsize <- 0;
  Array.fill q.head 0 wheel_size nil;
  Array.fill q.tail 0 wheel_size nil;
  q.near_count <- 0;
  q.cur <- 0;
  q.limit <- wheel_size;
  q.count <- 0
