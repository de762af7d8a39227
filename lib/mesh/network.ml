module Stats = Lk_engine.Stats

(* Every per-message quantity [send] needs is a field, so a message
   makes one call out of this module to charge its route: tile count,
   per-hop latency, flits per class, and the three traffic totals,
   which {!stats} publishes into the [Stats] group when it is read. *)
type t = {
  topology : Topology.t;
  tiles : int;
  per_hop : int;
  contention : bool;
  control_flits : int;
  data_flits : int;
  (* Flits per link in difference form (Topology): a send charges each
     route leg at its two ends, and a read sums the link's prefix. Only
     while [charging]: a run without a reader only counts hops. *)
  link_flits : int array;
  mutable charging : bool;
  (* Under the contention model: first cycle at which each link is free
     again. *)
  link_free : int array;
  (* The route segments the contention walk reuses, so a message
     allocates nothing. *)
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
    per_hop = link_latency + router_latency;
    contention;
    control_flits = Message.flits Message.Control;
    data_flits = Message.flits Message.Data;
    link_flits = Array.make (Topology.num_links topology) 0;
    charging = false;
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
  (Topology.hops t.topology ~src ~dst * t.per_hop)
  + Message.serialization_cycles class_

let[@inline] check_tile t id =
  if id < 0 || id >= t.tiles then
    invalid_arg ("Network.send: tile " ^ string_of_int id ^ " out of range")

(* The route's flits are charged in difference form, a few array
   updates whatever its length. Without contention the head then
   advances a fixed [per_hop] per link. Under the contention model
   (wormhole reservation) the head walks the route's segments, waiting
   at each link for it to drain earlier messages. Either way the body
   (flits - 1) follows pipelined behind the head (Message). Nothing
   here allocates or divides. *)
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
  let hops =
    if t.charging then Topology.charge t.topology t.link_flits ~src ~dst ~flits
    else Topology.route_hops t.topology ~src ~dst
  in
  if not t.contention then (hops * t.per_hop) + flits - 1
  else begin
    let segs = t.segs and link_free = t.link_free and per_hop = t.per_hop in
    let n = Topology.segments t.topology segs ~src ~dst in
    let cursor = ref now and queued = ref 0 in
    for k = 0 to n - 1 do
      let l = ref segs.(3 * k) and stride = segs.((3 * k) + 1) in
      for _ = 1 to segs.((3 * k) + 2) do
        let i = !l in
        let start = Int.max !cursor link_free.(i) in
        queued := !queued + (start - !cursor);
        link_free.(i) <- start + flits;
        cursor := start + per_hop;
        l := i + stride
      done
    done;
    t.queueing <- t.queueing + !queued;
    !cursor - now + flits - 1
  end

let charge_links t = t.charging <- true
let queueing_cycles t = t.queueing
let messages_sent t = t.messages
let flits_sent t = t.flits
let num_links t = Array.length t.link_flits

let[@inline] check_charging t =
  if not t.charging then
    invalid_arg "Network: per-link flits read before charge_links"

let link_flits t i =
  check_charging t;
  Topology.link_total t.topology t.link_flits i

let read_link_flits t out =
  check_charging t;
  Topology.link_totals t.topology t.link_flits out

let link_free t i = t.link_free.(i)

let link_utilisation t =
  let totals = Array.make (num_links t) 0 in
  read_link_flits t totals;
  Topology.links t.topology
  |> List.filter_map (fun link ->
         let n = totals.(Topology.link_index t.topology link) in
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
