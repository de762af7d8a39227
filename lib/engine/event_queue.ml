(* Pending-event set with two interchangeable backends.

   [Heap] is the classic array-backed binary min-heap the simulator
   started with, kept as the differential-testing reference: entries are
   compared by time first and by a monotonically increasing sequence
   number second, which yields stable FIFO behaviour for same-cycle
   events.

   [Wheel] is a calendar-queue / timing-wheel hybrid tuned for the
   discrete-event hot loop, where almost every event lands within a few
   hundred cycles of the clock: a "near" wheel of [wheel_size]
   power-of-two buckets (one simulated cycle per bucket) absorbs those
   in O(1), and a small overflow min-heap holds the far future. Both
   backends pop in exactly the same (time, seq) order, so a simulation
   is bit-identical under either.

   Allocation discipline (the point of the wheel): entries are mutable
   records chained through an intrusive [next] pointer (a physical
   self-loop marks the end of a list) and recycled through a per-queue
   freelist, so steady-state schedule/pop cycles allocate nothing. *)

type backend = Heap | Wheel

(* Placeholder written into vacated slots and recycled entries so the
   GC can reclaim popped payloads. The immediate 0 is a valid word of
   any type from the GC's point of view and is never read back: pops
   copy the payload out before the slot is cleared or recycled. *)
let absent : unit -> 'a = fun () -> Obj.magic 0

type 'a entry = {
  mutable time : int;
  mutable seq : int;
  mutable payload : 'a;
  mutable next : 'a entry;  (* slot chain / freelist; self-loop = nil *)
}

let make_entry time seq payload =
  let rec e = { time; seq; payload; next = e } in
  e

(* Near-wheel geometry: one bucket per cycle, [wheel_size] cycles of
   horizon. Delays in the simulator cluster well under this (L1 hits,
   NoC hops, memory latency ~100, backoffs up to ~512), so the overflow
   heap stays tiny. *)
let wheel_bits = 10
let wheel_size = 1 lsl wheel_bits
let wheel_mask = wheel_size - 1

type 'a t = {
  kind : backend;
  nil : 'a entry;  (* per-queue sentinel: empty slot / list end *)
  mutable next_seq : int;  (* insertion counter: the same-time tie-break *)
  mutable count : int;  (* total live entries, both regions *)
  (* Heap backend, and the wheel's far-overflow region. Orders entries
     by (time, seq); vacated slots are overwritten with [nil] so popped
     payloads do not stay reachable through the array. *)
  mutable harr : 'a entry array;
  mutable hsize : int;
  (* Wheel backend only. The near window is [limit - wheel_size, limit);
     slot [t land wheel_mask] holds exactly the events of cycle [t] in
     FIFO order. [cur] is the next candidate cycle: every near entry has
     time >= cur (adds below cur pull it back). *)
  slots_head : 'a entry array;
  slots_tail : 'a entry array;
  mutable near_count : int;
  mutable cur : int;
  mutable limit : int;
  (* Recycled entries, chained through [next], payloads cleared. *)
  mutable free : 'a entry;
}

let create ?(backend = Wheel) () =
  let nil = make_entry min_int (-1) (absent ()) in
  let wheel = backend = Wheel in
  {
    kind = backend;
    nil;
    next_seq = 0;
    count = 0;
    harr = [||];
    hsize = 0;
    slots_head = (if wheel then Array.make wheel_size nil else [||]);
    slots_tail = (if wheel then Array.make wheel_size nil else [||]);
    near_count = 0;
    cur = 0;
    limit = wheel_size;
    free = nil;
  }

let backend q = q.kind
let is_empty q = q.count = 0
let length q = q.count

(* --- entry pool ------------------------------------------------------ *)

let alloc q ~time ~seq payload =
  let e = q.free in
  if e != q.nil then begin
    q.free <- e.next;
    e.next <- e;
    e.time <- time;
    e.seq <- seq;
    e.payload <- payload;
    e
  end
  else make_entry time seq payload

let recycle q e =
  e.payload <- absent ();
  e.next <- q.free;
  q.free <- e

(* --- binary heap on entries ------------------------------------------ *)

let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let heap_swap q i j =
  let tmp = q.harr.(i) in
  q.harr.(i) <- q.harr.(j);
  q.harr.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt q.harr.(i) q.harr.(parent) then begin
      heap_swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.hsize && lt q.harr.(l) q.harr.(!smallest) then smallest := l;
  if r < q.hsize && lt q.harr.(r) q.harr.(!smallest) then smallest := r;
  if !smallest <> i then begin
    heap_swap q i !smallest;
    sift_down q !smallest
  end

let heap_push q e =
  let capacity = Array.length q.harr in
  if q.hsize = capacity then begin
    let ncap = Int.max 16 (2 * capacity) in
    let narr = Array.make ncap q.nil in
    Array.blit q.harr 0 narr 0 q.hsize;
    q.harr <- narr
  end;
  q.harr.(q.hsize) <- e;
  q.hsize <- q.hsize + 1;
  sift_up q (q.hsize - 1)

(* Remove and return the root. The vacated slot is overwritten with
   [nil]: leaving the old reference behind used to keep the popped
   entry — and its closure payload — live for the rest of the run. *)
let heap_pop q =
  let top = q.harr.(0) in
  q.hsize <- q.hsize - 1;
  if q.hsize > 0 then begin
    q.harr.(0) <- q.harr.(q.hsize);
    q.harr.(q.hsize) <- q.nil;
    sift_down q 0
  end
  else q.harr.(0) <- q.nil;
  top

(* --- wheel ----------------------------------------------------------- *)

(* Append to the FIFO chain of [e]'s cycle. Entries arrive here in
   nondecreasing seq order for any given cycle (direct adds are issued
   in seq order, and refills drain the far heap in (time, seq) order
   before any later direct add), so chain order is seq order. *)
let wheel_append q e =
  let i = e.time land wheel_mask in
  let tail = q.slots_tail.(i) in
  if tail == q.nil then q.slots_head.(i) <- e else tail.next <- e;
  q.slots_tail.(i) <- e;
  if e.time < q.cur then q.cur <- e.time;
  q.near_count <- q.near_count + 1

(* Move every far event that fits into the window ending at [q.limit]
   back into the wheel, in (time, seq) order. *)
let drain_far q =
  while q.hsize > 0 && q.harr.(0).time < q.limit do
    let e = heap_pop q in
    e.next <- e;
    wheel_append q e
  done

(* The near region emptied: recenter the window on the earliest far
   event. Only called with far events pending. *)
let rebase q =
  let tmin = q.harr.(0).time in
  q.cur <- tmin;
  q.limit <- tmin + wheel_size;
  drain_far q

(* An add landed below the current window (possible only through the
   raw queue API — the kernel never schedules in the past). Spill the
   whole near region into the far heap and rebuild the window around
   the new time. O(wheel_size + n log n), but never hit by [Sim]. *)
let reshuffle q ~time =
  for i = 0 to wheel_size - 1 do
    let e = ref q.slots_head.(i) in
    if !e != q.nil then begin
      q.slots_head.(i) <- q.nil;
      q.slots_tail.(i) <- q.nil;
      let continue = ref true in
      while !continue do
        let n = (!e).next in
        (!e).next <- !e;
        heap_push q !e;
        if n == !e then continue := false else e := n
      done
    end
  done;
  q.near_count <- 0;
  q.cur <- time;
  q.limit <- time + wheel_size;
  drain_far q

(* Advance [cur] to the next occupied slot. Requires near_count > 0;
   terminates within [wheel_size] steps because every near entry lives
   at a slot in [cur, limit). *)
let advance q =
  while q.slots_head.(q.cur land wheel_mask) == q.nil do
    q.cur <- q.cur + 1
  done

(* --- queue API ------------------------------------------------------- *)

let add q ~time payload =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  q.count <- q.count + 1;
  match q.kind with
  | Heap -> heap_push q (alloc q ~time ~seq payload)
  | Wheel ->
    if time >= q.limit then heap_push q (alloc q ~time ~seq payload)
    else if time >= q.limit - wheel_size then
      wheel_append q (alloc q ~time ~seq payload)
    else begin
      reshuffle q ~time;
      wheel_append q (alloc q ~time ~seq payload)
    end

let no_event = min_int

(* Allocation-free peek: unlike [peek_time] there is no [option] box.
   For the wheel this also rebases/advances, so a following
   [pop_payload] finds the earliest event at [q.cur]. *)
let next_time q =
  if q.count = 0 then no_event
  else
    match q.kind with
    | Heap -> q.harr.(0).time
    | Wheel ->
      if q.near_count = 0 then rebase q;
      advance q;
      q.cur

(* Allocation-free pop: the payload is returned bare (no tuple, no
   [Some] — those cost 5 minor words per event in the kernel loop). *)
let pop_payload q =
  if q.count = 0 then invalid_arg "Event_queue.pop_payload: empty queue";
  q.count <- q.count - 1;
  match q.kind with
  | Heap ->
    let e = heap_pop q in
    let payload = e.payload in
    recycle q e;
    payload
  | Wheel ->
    if q.near_count = 0 then rebase q;
    advance q;
    let i = q.cur land wheel_mask in
    let e = q.slots_head.(i) in
    if e.next == e then begin
      q.slots_head.(i) <- q.nil;
      q.slots_tail.(i) <- q.nil
    end
    else begin
      q.slots_head.(i) <- e.next;
      e.next <- e
    end;
    q.near_count <- q.near_count - 1;
    let payload = e.payload in
    recycle q e;
    payload

(* --- schedule exploration hooks -------------------------------------- *)

(* Size of the "runnable set": the group of pending events sharing the
   earliest time. Only the explorer/fuzzer in lib/check calls this, so
   the O(n) heap scan is acceptable — checking runs use tiny models. *)
let runnable q =
  if q.count = 0 then 0
  else
    match q.kind with
    | Heap ->
      let tmin = q.harr.(0).time in
      let n = ref 0 in
      for i = 0 to q.hsize - 1 do
        if q.harr.(i).time = tmin then incr n
      done;
      !n
    | Wheel ->
      (* After rebase/advance the slot at [cur] holds exactly the
         events of the earliest cycle, in FIFO (= seq) order; far-heap
         entries all have time >= limit > cur. *)
      if q.near_count = 0 then rebase q;
      advance q;
      let n = ref 0 in
      let e = ref q.slots_head.(q.cur land wheel_mask) in
      let continue = ref (!e != q.nil) in
      while !continue do
        incr n;
        if (!e).next == !e then continue := false else e := (!e).next
      done;
      !n

(* Remove the entry at arbitrary heap index [i]: swap with the last
   slot, then restore the heap property in whichever direction the
   replacement violates it. *)
let heap_remove_at q i =
  let e = q.harr.(i) in
  q.hsize <- q.hsize - 1;
  if i < q.hsize then begin
    q.harr.(i) <- q.harr.(q.hsize);
    q.harr.(q.hsize) <- q.nil;
    sift_down q i;
    sift_up q i
  end
  else q.harr.(i) <- q.nil;
  e

let pop_payload_nth q k =
  if q.count = 0 then invalid_arg "Event_queue.pop_payload_nth: empty queue";
  if k < 0 then invalid_arg "Event_queue.pop_payload_nth: negative index";
  if k = 0 then pop_payload q
  else
    match q.kind with
    | Heap ->
      (* Select the entry with the (k+1)-smallest seq among the
         min-time entries by repeated selection — O(k*n), fine for the
         tiny models the explorer drives. *)
      let tmin = q.harr.(0).time in
      let last = ref (-1) in
      let pick = ref (-1) in
      for _ = 0 to k do
        let best = ref (-1) in
        for i = 0 to q.hsize - 1 do
          let e = q.harr.(i) in
          if
            e.time = tmin && e.seq > !last
            && (!best = -1 || e.seq < q.harr.(!best).seq)
          then best := i
        done;
        if !best = -1 then
          invalid_arg "Event_queue.pop_payload_nth: index out of range";
        last := q.harr.(!best).seq;
        pick := !best
      done;
      q.count <- q.count - 1;
      let e = heap_remove_at q !pick in
      let payload = e.payload in
      recycle q e;
      payload
    | Wheel ->
      if q.near_count = 0 then rebase q;
      advance q;
      let i = q.cur land wheel_mask in
      (* Walk to the k-th node of the cycle's FIFO chain and unlink
         it, patching head/tail as needed. *)
      let prev = ref q.nil in
      let e = ref q.slots_head.(i) in
      (try
         for _ = 1 to k do
           if (!e).next == !e then raise Exit;
           prev := !e;
           e := (!e).next
         done
       with Exit ->
         invalid_arg "Event_queue.pop_payload_nth: index out of range");
      let node = !e in
      if !prev == q.nil then
        if node.next == node then begin
          q.slots_head.(i) <- q.nil;
          q.slots_tail.(i) <- q.nil
        end
        else q.slots_head.(i) <- node.next
      else if node.next == node then begin
        (!prev).next <- !prev;
        q.slots_tail.(i) <- !prev
      end
      else (!prev).next <- node.next;
      q.near_count <- q.near_count - 1;
      q.count <- q.count - 1;
      let payload = node.payload in
      recycle q node;
      payload

let pop q =
  let time = next_time q in
  if time = no_event then None else Some (time, pop_payload q)

let peek_time q =
  let time = next_time q in
  if time = no_event then None else Some time

let clear q =
  (match q.kind with
  | Heap -> ()
  | Wheel ->
    for i = 0 to wheel_size - 1 do
      let e = ref q.slots_head.(i) in
      if !e != q.nil then begin
        q.slots_head.(i) <- q.nil;
        q.slots_tail.(i) <- q.nil;
        let continue = ref true in
        while !continue do
          let n = (!e).next in
          recycle q !e;
          if n == !e then continue := false else e := n
        done
      end
    done;
    q.near_count <- 0;
    q.cur <- 0;
    q.limit <- wheel_size);
  while q.hsize > 0 do
    recycle q (heap_pop q)
  done;
  q.count <- 0
