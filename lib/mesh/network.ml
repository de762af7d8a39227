module Stats = Lk_engine.Stats

(* Every per-message quantity [send] needs is a field, so a message
   makes one call out of this module (the route's segments): tile
   count, flits and serialisation per class, and the three traffic
   totals, which {!stats} publishes into the [Stats] group when it is
   read. *)
type t = {
  topology : Topology.t;
  tiles : int;
  link_latency : int;
  router_latency : int;
  contention : bool;
  control_flits : int;
  data_flits : int;
  link_flits : int array;
  (* Under the contention model: first cycle at which each link is free
     again. *)
  link_free : int array;
  (* The route segments [send] reuses, so a message allocates nothing. *)
  segs : int array;
  mutable messages : int;
  mutable flits : int;
  mutable queueing : int;
  stats : Stats.group;
}

let create ?(link_latency = 1) ?(router_latency = 1) ?(contention = false)
    topology =
  if link_latency < 0 || router_latency < 0 then
    invalid_arg "Network.create: negative latency";
  {
    topology;
    tiles = Topology.tiles topology;
    link_latency;
    router_latency;
    contention;
    control_flits = Message.flits Message.Control;
    data_flits = Message.flits Message.Data;
    link_flits = Array.make (Topology.num_links topology) 0;
    link_free = Array.make (Topology.num_links topology) 0;
    segs = Array.make (3 * Topology.max_segments) 0;
    messages = 0;
    flits = 0;
    queueing = 0;
    stats = Stats.group "network";
  }

let contention t = t.contention

let topology t = t.topology

let latency t ~src ~dst ~class_ =
  let hops = Topology.hops t.topology ~src ~dst in
  (hops * (t.link_latency + t.router_latency))
  + Message.serialization_cycles class_

let check_tile t id =
  if id < 0 || id >= t.tiles then
    invalid_arg ("Network.send: tile " ^ string_of_int id ^ " out of range")

(* One pass over the route's segments serves both models: each hop
   charges its link the message's flits. Under the contention model
   (wormhole reservation) the head flit first waits for the link to
   drain earlier messages, and the body (flits - 1) follows pipelined
   behind it; without it the head advances a fixed [per_hop] per link.
   Nothing here allocates or divides. *)
let send t ~now ~src ~dst ~class_ =
  check_tile t src;
  check_tile t dst;
  let flits =
    match class_ with
    | Message.Control -> t.control_flits
    | Message.Data -> t.data_flits
  in
  t.messages <- t.messages + 1;
  t.flits <- t.flits + flits;
  let per_hop = t.link_latency + t.router_latency in
  let segs = t.segs and link_flits = t.link_flits in
  let n = Topology.segments t.topology segs ~src ~dst in
  let cursor = ref now in
  if t.contention then begin
    let link_free = t.link_free and queued = ref 0 in
    for k = 0 to n - 1 do
      let l = ref segs.(3 * k) and stride = segs.((3 * k) + 1) in
      for _ = 1 to segs.((3 * k) + 2) do
        let i = !l in
        link_flits.(i) <- link_flits.(i) + flits;
        let start = Int.max !cursor link_free.(i) in
        queued := !queued + (start - !cursor);
        link_free.(i) <- start + flits;
        cursor := start + per_hop;
        l := i + stride
      done
    done;
    t.queueing <- t.queueing + !queued
  end
  else
    for k = 0 to n - 1 do
      let l = ref segs.(3 * k) and stride = segs.((3 * k) + 1) in
      let count = segs.((3 * k) + 2) in
      for _ = 1 to count do
        link_flits.(!l) <- link_flits.(!l) + flits;
        l := !l + stride
      done;
      cursor := !cursor + (count * per_hop)
    done;
  (* The body's [flits - 1] cycles behind the head (Message). *)
  !cursor - now + flits - 1

let queueing_cycles t = t.queueing
let messages_sent t = t.messages
let flits_sent t = t.flits
let num_links t = Array.length t.link_flits
let link_flits t i = t.link_flits.(i)
let link_free t i = t.link_free.(i)

let link_utilisation t =
  Topology.links t.topology
  |> List.filter_map (fun link ->
         let n = t.link_flits.(Topology.link_index t.topology link) in
         if n > 0 then Some (link, n) else None)
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let stats t =
  let publish name v =
    let c = Stats.counter t.stats name in
    Stats.add c (v - Stats.value c)
  in
  publish "messages" t.messages;
  publish "flits" t.flits;
  publish "queueing_cycles" t.queueing;
  t.stats

let reset_traffic t =
  Array.fill t.link_flits 0 (Array.length t.link_flits) 0;
  Array.fill t.link_free 0 (Array.length t.link_free) 0;
  t.messages <- 0;
  t.flits <- 0;
  t.queueing <- 0;
  Stats.reset t.stats
