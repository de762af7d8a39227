(* The kernel: one shared event queue, drained in (time, seq) order. *)

type t = {
  queue : (unit -> unit) Event_queue.t;
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

let create () =
  {
    queue = Event_queue.create ();
    clock = 0;
    events = 0;
    quiescent_hooks = [];
    chooser = None;
    observer = None;
  }

let now t = t.clock
let events t = t.events

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Sim.schedule: negative delay";
  Event_queue.add t.queue ~time:(t.clock + delay) f

let schedule_at t ~time f =
  if time < t.clock then invalid_arg "Sim.schedule_at: time in the past";
  Event_queue.add t.queue ~time f

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
  let f =
    match t.chooser with
    | None -> Event_queue.pop_payload t.queue
    | Some choose ->
      let n = Event_queue.runnable t.queue in
      if n <= 1 then Event_queue.pop_payload t.queue
      else Event_queue.pop_payload_nth t.queue (choose n)
  in
  f ();
  match t.observer with None -> () | Some g -> g ()

let run ?limit t =
  let beyond time = match limit with None -> false | Some l -> time > l in
  (* Quiescence hooks may inject rescue work, but if they keep doing so
     without the clock ever advancing the simulation is livelocked:
     raise rather than spin forever. *)
  let hook_rounds = ref 0 in
  let last_hook_clock = ref (-1) in
  let rec drain () =
    let time = Event_queue.next_time t.queue in
    if time = Event_queue.no_event then begin
      let hooks = t.quiescent_hooks in
      List.iter (fun hook -> hook ()) hooks;
      if pending t > 0 then begin
        if t.clock = !last_hook_clock then begin
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
        end;
        drain ()
      end
    end
    else if beyond time then begin
      Event_queue.clear t.queue;
      match limit with Some l -> t.clock <- l | None -> ()
    end
    else begin
      fire t time;
      drain ()
    end
  in
  drain ()
