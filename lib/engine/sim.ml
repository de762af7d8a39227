(* The kernel: one shared event queue, drained in (time, seq) order.
   An event is one int: a registered handler's index in the low
   [handler_bits] bits and its int argument above them, so posting one
   stores no pointer. Handler 0 is [unset], the placeholder of a
   handler field not yet registered. [schedule]'s closures wait in a
   side table, fired through handler 1, [closure], with their slot as
   the argument. *)

type handler = int

let handler_bits = 16
let max_handlers = 1 lsl handler_bits

type t = {
  queue : Event_queue.t;
  mutable handlers : (int -> unit) array;
  mutable names : string array;
  mutable nhandlers : int;
  mutable thunks : (unit -> unit) array;
  (* The freelist of [thunks] slots, chained in [thunk_next]. *)
  mutable free_thunk : int;
  mutable thunk_next : int array;
  mutable clock : int;
  mutable events : int;
  mutable quiescent_hooks : (unit -> unit) list;
  (* Schedule-exploration hooks (lockiller.check). Both default to
     [None]; the hot path pays exactly one immediate-vs-block branch per
     event for each, same as the ledger pattern elsewhere. *)
  mutable chooser : (int -> int) option;
  mutable observer : (unit -> unit) option;
}

exception Stalled of string

let ignore_arg (_ : int) = ()
let noop () = ()

let fire_thunk t slot =
  let f = t.thunks.(slot) in
  t.thunks.(slot) <- noop;
  t.thunk_next.(slot) <- t.free_thunk;
  t.free_thunk <- slot;
  f ()

let handler t ~name f =
  let h = t.nhandlers in
  if h = max_handlers then invalid_arg "Sim.handler: too many handlers";
  if h = Array.length t.handlers then begin
    let grow a fill = Array.append a (Array.make (Int.max 8 h) fill) in
    t.handlers <- grow t.handlers ignore_arg;
    t.names <- grow t.names ""
  end;
  t.handlers.(h) <- f;
  t.names.(h) <- name;
  t.nhandlers <- h + 1;
  h

let[@inline] post_at t ~time h arg =
  if h >= t.nhandlers then
    invalid_arg "Sim.post: handler of another simulation";
  if arg lsr (Sys.int_size - handler_bits - 1) <> 0 then
    invalid_arg ("Sim.post: " ^ t.names.(h) ^ ": argument out of range");
  Event_queue.add t.queue ~time ((arg lsl handler_bits) lor h)

let[@inline] post t ~delay h arg =
  if delay < 0 then invalid_arg "Sim.post: negative delay";
  post_at t ~time:(t.clock + delay) h arg

let unset = 0
let closure = 1

let create () =
  let t =
    {
      queue = Event_queue.create ();
      handlers = [||];
      names = [||];
      nhandlers = 0;
      thunks = [||];
      free_thunk = -1;
      thunk_next = [||];
      clock = 0;
      events = 0;
      quiescent_hooks = [];
      chooser = None;
      observer = None;
    }
  in
  let (_ : handler) =
    handler t ~name:"unset" (fun _ -> failwith "Sim: unset handler fired")
  in
  let (_ : handler) = handler t ~name:"closure" (fire_thunk t) in
  t

let now t = t.clock
let events t = t.events

(* Park [f] in a free slot of the side table and post [closure] on
   it. *)
let thunk_at t ~time f =
  if t.free_thunk < 0 then begin
    let n = Array.length t.thunks in
    let m = Int.max 16 (2 * n) in
    t.thunks <- Array.append t.thunks (Array.make (m - n) noop);
    t.thunk_next <- Array.append t.thunk_next (Array.init (m - n) (fun i ->
        if n + i + 1 < m then n + i + 1 else -1));
    t.free_thunk <- n
  end;
  let slot = t.free_thunk in
  t.free_thunk <- t.thunk_next.(slot);
  t.thunks.(slot) <- f;
  post_at t ~time closure slot

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Sim.schedule: negative delay";
  thunk_at t ~time:(t.clock + delay) f

let schedule_at t ~time f =
  if time < t.clock then invalid_arg "Sim.schedule_at: time in the past";
  thunk_at t ~time f

let pending t = Event_queue.length t.queue

let on_quiescent t hook = t.quiescent_hooks <- hook :: t.quiescent_hooks

let set_chooser t chooser = t.chooser <- chooser

let set_observer t observer = t.observer <- observer

(* [fire] assumes the queue is non-empty; allocation-free (no tuple/
   option boxing, and no polymorphic [max] on the clock). With a
   chooser installed the kernel lets it pick any member of the runnable
   set (the same-cycle group) instead of strict insertion order. *)
let fire t time =
  if time > t.clock then t.clock <- time;
  t.events <- t.events + 1;
  let ev =
    match t.chooser with
    | None -> Event_queue.pop_payload t.queue
    | Some choose ->
      let n = Event_queue.runnable t.queue in
      if n <= 1 then Event_queue.pop_payload t.queue
      else Event_queue.pop_payload_nth t.queue (choose n)
  in
  (* [post] checked that [ev]'s handler is registered. *)
  let h = Array.unsafe_get t.handlers (ev land (max_handlers - 1)) in
  h (ev asr handler_bits);
  match t.observer with None -> () | Some g -> g ()

let run ?limit t =
  let limit = match limit with None -> max_int | Some l -> l in
  (* Quiescence hooks may inject rescue work, but if they keep doing so
     without the clock ever advancing the simulation is livelocked:
     raise rather than spin forever. *)
  let hook_rounds = ref 0 in
  let last_hook_clock = ref (-1) in
  let running = ref true in
  while !running do
    let time = Event_queue.next_time t.queue in
    if time = Event_queue.no_event then begin
      List.iter (fun hook -> hook ()) t.quiescent_hooks;
      if pending t = 0 then running := false
      else if t.clock = !last_hook_clock then begin
        incr hook_rounds;
        if !hook_rounds > 1000 then
          raise
            (Stalled
               ("quiescence hooks injected work 1000 times at cycle "
               ^ string_of_int t.clock ^ " without progress"))
      end
      else begin
        last_hook_clock := t.clock;
        hook_rounds := 0
      end
    end
    else if time > limit then begin
      Event_queue.clear t.queue;
      t.clock <- limit;
      running := false
    end
    else fire t time
  done
