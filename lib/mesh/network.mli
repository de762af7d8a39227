(** Interconnect latency model and traffic accounting.

    Latency of one message = per-hop cost (link latency + router
    latency) x hops + serialisation cycles of the message class. Links
    are 1 flit/cycle (Table I).

    Two fidelity levels: the default model is contention-free — the
    atomic-directory protocol (see DESIGN.md) already serialises
    same-line traffic, which is where HTM contention manifests — while
    [~contention:true] additionally reserves per-link occupancy
    (wormhole style: each flit holds a link for one cycle) so that a
    congested link delays later messages. Once {!charge_links} is on,
    every traversal is accounted per link either way, so utilisation
    reports can expose hotspots.
    The per-link counts are kept in difference form
    ({!Topology.charge}), so without contention a send costs the same
    whatever the route's length; a read sums a link's progression. *)

type t

val create :
  ?link_latency:int ->
  ?router_latency:int ->
  ?contention:bool ->
  Topology.t ->
  t
(** Defaults: 1-cycle links (Table I), 1-cycle routers, no contention. *)

val contention : t -> bool

val topology : t -> Topology.t

val latency : t -> src:int -> dst:int -> class_:Message.class_ -> int
(** Cycles for one message from tile [src] to tile [dst]. A local
    message ([src = dst]) only pays serialisation. *)

val send :
  t -> now:int -> src:int -> dst:int -> class_:Message.class_ -> int
(** Like [latency] but also records the traversal in the traffic
    counters and, under the contention model, reserves link occupancy
    starting at [now] (the current simulated cycle). Returns the
    latency, including any queueing delay. Allocation-free; raises
    [Invalid_argument] on a tile outside the topology. *)

val queueing_cycles : t -> int
(** Total cycles messages spent queueing for busy links (0 without the
    contention model). *)

val messages_sent : t -> int
val flits_sent : t -> int

val num_links : t -> int
(** Size of the per-link flit-counter array (= [Topology.num_links]). *)

val charge_links : t -> unit
(** Count flits per link from now on. Until this is called a send only
    counts its hops, and every per-link read below raises
    [Invalid_argument]; the telemetry sampler calls it when it
    attaches, before the first send. The [messages] and [flits] totals and {!link_free} are kept
    either way. *)

val link_flits : t -> int -> int
(** Cumulative flits carried by link index [i] (see
    {!Topology.link_index}): the sum of [i]'s progression up to it,
    O(row or column length). Allocation-free; {!read_link_flits}
    reads every link in one pass and {!link_utilisation} presents the
    same data as a sorted association list. *)

val read_link_flits : t -> int array -> unit
(** [read_link_flits t out] writes {!link_flits} of every link [i]
    into [out.(i)] ([out] holds {!num_links} ints) in one O(links)
    pass. Allocation-free, for the telemetry sampler. *)

val link_free : t -> int -> int
(** First cycle at which link index [i] is free again under the
    contention model (always 0 without it). *)

val link_utilisation : t -> (Topology.link * int) list
(** Flit count per directed link, non-zero links only, densest first. *)

val stats : t -> Lk_engine.Stats.group

val reset_traffic : t -> unit
