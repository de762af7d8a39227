module Stats = Lk_engine.Stats

type t = {
  topology : Topology.t;
  link_latency : int;
  router_latency : int;
  contention : bool;
  link_flits : int array;
  (* Under the contention model: first cycle at which each link is free
     again. *)
  link_free : int array;
  (* The route cursor [send] reuses, so a message allocates nothing. *)
  walk : Topology.walk;
  stats : Stats.group;
  messages : Stats.counter;
  flits : Stats.counter;
  queueing : Stats.counter;
}

let create ?(link_latency = 1) ?(router_latency = 1) ?(contention = false)
    topology =
  if link_latency < 0 || router_latency < 0 then
    invalid_arg "Network.create: negative latency";
  let stats = Stats.group "network" in
  {
    topology;
    link_latency;
    router_latency;
    contention;
    link_flits = Array.make (Topology.num_links topology) 0;
    link_free = Array.make (Topology.num_links topology) 0;
    walk = Topology.walk ();
    stats;
    messages = Stats.counter stats "messages";
    flits = Stats.counter stats "flits";
    queueing = Stats.counter stats "queueing_cycles";
  }

let contention t = t.contention

let topology t = t.topology

let latency t ~src ~dst ~class_ =
  let hops = Topology.hops t.topology ~src ~dst in
  (hops * (t.link_latency + t.router_latency))
  + Message.serialization_cycles class_

let check_tile t id =
  if id < 0 || id >= Topology.tiles t.topology then
    invalid_arg ("Network.send: tile " ^ string_of_int id ^ " out of range")

(* One walk over the dimension-order route serves both models: each
   hop charges its link the message's flits and advances the head
   flit's cursor. Under the contention model (wormhole reservation) the
   head first waits for the link to drain earlier messages; the body
   (flits - 1) follows pipelined behind it. Nothing here allocates or
   divides per hop. *)
let send t ~now ~src ~dst ~class_ =
  check_tile t src;
  check_tile t dst;
  let flits = Message.flits class_ in
  Stats.incr t.messages;
  Stats.add t.flits flits;
  let per_hop = t.link_latency + t.router_latency in
  let topo = t.topology and w = t.walk in
  Topology.start topo w ~src ~dst;
  let cursor = ref now and queued = ref 0 in
  let i = ref (Topology.next topo w) in
  while !i >= 0 do
    let l = !i in
    t.link_flits.(l) <- t.link_flits.(l) + flits;
    if t.contention then begin
      let start = Int.max !cursor t.link_free.(l) in
      queued := !queued + (start - !cursor);
      t.link_free.(l) <- start + flits;
      cursor := start
    end;
    cursor := !cursor + per_hop;
    i := Topology.next topo w
  done;
  if t.contention then Stats.add t.queueing !queued;
  !cursor - now + Message.serialization_cycles class_

let queueing_cycles t = Stats.value t.queueing

let messages_sent t = Stats.value t.messages
let flits_sent t = Stats.value t.flits
let num_links t = Array.length t.link_flits
let link_flits t i = t.link_flits.(i)
let link_free t i = t.link_free.(i)

let link_utilisation t =
  Topology.links t.topology
  |> List.filter_map (fun link ->
         let n = t.link_flits.(Topology.link_index t.topology link) in
         if n > 0 then Some (link, n) else None)
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let stats t = t.stats

let reset_traffic t =
  Array.fill t.link_flits 0 (Array.length t.link_flits) 0;
  Array.fill t.link_free 0 (Array.length t.link_free) 0;
  Stats.reset t.stats
