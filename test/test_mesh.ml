(* Tests for the mesh topology, X-Y routing and the network latency
   model. *)

module Coord = Lk_mesh.Coord
module Topology = Lk_mesh.Topology
module Message = Lk_mesh.Message
module Network = Lk_mesh.Network

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let paper_mesh () = Topology.create ~rows:4 ~cols:8

(* --- Coord ----------------------------------------------------------- *)

let test_coord_roundtrip () =
  let cols = 8 in
  for id = 0 to 31 do
    check_int "roundtrip" id (Coord.to_tile ~cols (Coord.of_tile ~cols id))
  done

let test_coord_layout () =
  let c = Coord.of_tile ~cols:8 11 in
  check_int "row" 1 c.Coord.row;
  check_int "col" 3 c.Coord.col

let test_coord_manhattan () =
  let a = { Coord.row = 0; col = 0 } and b = { Coord.row = 3; col = 7 } in
  check_int "distance" 10 (Coord.manhattan a b);
  check_int "self" 0 (Coord.manhattan a a)

(* --- Topology -------------------------------------------------------- *)

let test_topology_tiles () =
  let t = paper_mesh () in
  check_int "32 tiles" 32 (Topology.tiles t)

let test_route_length_is_manhattan () =
  let t = paper_mesh () in
  for src = 0 to 31 do
    for dst = 0 to 31 do
      check_int "route length" (Topology.hops t ~src ~dst)
        (List.length (Topology.route t ~src ~dst))
    done
  done

let test_route_self_empty () =
  let t = paper_mesh () in
  check_bool "empty" true (Topology.route t ~src:5 ~dst:5 = [])

let test_route_is_connected_path () =
  let t = paper_mesh () in
  let route = Topology.route t ~src:0 ~dst:31 in
  let rec connected = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) ->
      a.Topology.to_tile = b.Topology.from_tile && connected rest
  in
  check_bool "connected" true (connected route);
  (match route with
  | first :: _ -> check_int "starts at src" 0 first.Topology.from_tile
  | [] -> Alcotest.fail "route empty");
  let last = List.nth route (List.length route - 1) in
  check_int "ends at dst" 31 last.Topology.to_tile

let test_route_xy_order () =
  (* X-Y routing: column movement strictly before row movement. *)
  let t = paper_mesh () in
  let route = Topology.route t ~src:0 ~dst:26 in
  let is_col_hop l =
    let f = Coord.of_tile ~cols:8 l.Topology.from_tile in
    let g = Coord.of_tile ~cols:8 l.Topology.to_tile in
    f.Coord.row = g.Coord.row
  in
  let rec check_phase seen_row = function
    | [] -> true
    | hop :: rest ->
      if is_col_hop hop then (not seen_row) && check_phase false rest
      else check_phase true rest
  in
  check_bool "X before Y" true (check_phase false route)

let test_out_of_range_rejected () =
  let t = paper_mesh () in
  Alcotest.check_raises "bad tile"
    (Invalid_argument "Topology.hops: tile 32 out of range") (fun () ->
      ignore (Topology.hops t ~src:32 ~dst:0))

let test_links_count () =
  (* A rows x cols mesh has 2*(rows*(cols-1) + cols*(rows-1)) directed
     links. *)
  let t = paper_mesh () in
  check_int "directed links"
    (2 * ((4 * 7) + (8 * 3)))
    (List.length (Topology.links t))

let test_link_index_distinct () =
  let t = paper_mesh () in
  let indices = List.map (Topology.link_index t) (Topology.links t) in
  let sorted = List.sort_uniq compare indices in
  check_int "indices distinct" (List.length indices) (List.length sorted)

let prop_hops_symmetric =
  QCheck.Test.make ~name:"hop count is symmetric" ~count:200
    QCheck.(pair (int_bound 31) (int_bound 31))
    (fun (src, dst) ->
      let t = paper_mesh () in
      Topology.hops t ~src ~dst = Topology.hops t ~src:dst ~dst:src)

let prop_hops_triangle =
  QCheck.Test.make ~name:"hop count satisfies triangle inequality" ~count:200
    QCheck.(triple (int_bound 31) (int_bound 31) (int_bound 31))
    (fun (a, b, c) ->
      let t = paper_mesh () in
      Topology.hops t ~src:a ~dst:c
      <= Topology.hops t ~src:a ~dst:b + Topology.hops t ~src:b ~dst:c)

(* --- Alternative topologies ------------------------------------------- *)

let all_fabrics =
  [
    Topology.create ~rows:4 ~cols:8;
    Topology.create_torus ~rows:4 ~cols:8;
    Topology.create_ring ~tiles:32;
    Topology.create_crossbar ~tiles:32;
  ]

let route_connects t ~src ~dst =
  let route = Topology.route t ~src ~dst in
  let rec walk cur = function
    | [] -> cur = dst
    | l :: rest -> l.Topology.from_tile = cur && walk l.Topology.to_tile rest
  in
  walk src route

let test_all_fabrics_route_everywhere () =
  List.iter
    (fun t ->
      for src = 0 to Topology.tiles t - 1 do
        for dst = 0 to Topology.tiles t - 1 do
          check_bool
            (Printf.sprintf "%s %d->%d connects"
               (Topology.kind_name (Topology.kind t))
               src dst)
            true (route_connects t ~src ~dst);
          check_int "route length = hops"
            (Topology.hops t ~src ~dst)
            (List.length (Topology.route t ~src ~dst))
        done
      done)
    all_fabrics

let test_all_fabric_links_indexable () =
  List.iter
    (fun t ->
      let indices = List.map (Topology.link_index t) (Topology.links t) in
      check_int
        (Topology.kind_name (Topology.kind t) ^ " indices distinct")
        (List.length indices)
        (List.length (List.sort_uniq compare indices));
      List.iter
        (fun i ->
          check_bool "index in bounds" true (i >= 0 && i < Topology.num_links t))
        indices)
    all_fabrics

let test_torus_uses_wraparound () =
  let t = Topology.create_torus ~rows:4 ~cols:8 in
  (* column 0 to column 7 is one wrap hop, not seven mesh hops *)
  check_int "wrap shortcut" 1 (Topology.hops t ~src:0 ~dst:7);
  let mesh = Topology.create ~rows:4 ~cols:8 in
  check_int "mesh goes the long way" 7 (Topology.hops mesh ~src:0 ~dst:7)

let test_ring_shortest_direction () =
  let t = Topology.create_ring ~tiles:32 in
  check_int "short way round" 2 (Topology.hops t ~src:1 ~dst:31);
  check_int "diameter" 16 (Topology.hops t ~src:0 ~dst:16)

let test_crossbar_single_hop () =
  let t = Topology.create_crossbar ~tiles:32 in
  for dst = 1 to 31 do
    check_int "one hop" 1 (Topology.hops t ~src:0 ~dst)
  done;
  check_int "all-to-all links" (32 * 31) (List.length (Topology.links t))

let test_fabric_constructors_validate () =
  Alcotest.check_raises "tiny torus"
    (Invalid_argument "Topology.create_torus: dimensions must be at least 3")
    (fun () -> ignore (Topology.create_torus ~rows:2 ~cols:4));
  Alcotest.check_raises "tiny ring"
    (Invalid_argument "Topology.create_ring: need at least 3 tiles") (fun () ->
      ignore (Topology.create_ring ~tiles:2))

let prop_torus_hops_bounded_by_mesh =
  QCheck.Test.make ~name:"torus routes never longer than mesh routes"
    ~count:200
    QCheck.(pair (int_bound 31) (int_bound 31))
    (fun (src, dst) ->
      let mesh = Topology.create ~rows:4 ~cols:8 in
      let torus = Topology.create_torus ~rows:4 ~cols:8 in
      Topology.hops torus ~src ~dst <= Topology.hops mesh ~src ~dst)

(* --- Message --------------------------------------------------------- *)

let test_message_sizes () =
  check_int "control 1 flit" 1 (Message.flits Message.Control);
  check_int "data 5 flits" 5 (Message.flits Message.Data);
  check_int "control serialisation" 0
    (Message.serialization_cycles Message.Control);
  check_int "data serialisation" 4 (Message.serialization_cycles Message.Data)

(* --- Network --------------------------------------------------------- *)

let test_latency_local () =
  let net = Network.create (paper_mesh ()) in
  check_int "local control" 0
    (Network.latency net ~src:3 ~dst:3 ~class_:Message.Control);
  check_int "local data" 4
    (Network.latency net ~src:3 ~dst:3 ~class_:Message.Data)

let test_latency_scales_with_hops () =
  let net = Network.create (paper_mesh ()) in
  (* 1 hop, link+router = 2 cycles per hop *)
  check_int "one hop control" 2
    (Network.latency net ~src:0 ~dst:1 ~class_:Message.Control);
  (* corner to corner: 10 hops *)
  check_int "ten hops data"
    ((10 * 2) + 4)
    (Network.latency net ~src:0 ~dst:31 ~class_:Message.Data)

let test_custom_latencies () =
  let net = Network.create ~link_latency:3 ~router_latency:0 (paper_mesh ()) in
  check_int "3 per hop" 6
    (Network.latency net ~src:0 ~dst:2 ~class_:Message.Control)

let test_send_accounts_traffic () =
  let net = Network.create (paper_mesh ()) in
  Network.charge_links net;
  ignore (Network.send net ~now:0 ~src:0 ~dst:3 ~class_:Message.Data);
  ignore (Network.send net ~now:0 ~src:0 ~dst:3 ~class_:Message.Control);
  check_int "messages" 2 (Network.messages_sent net);
  check_int "flits" 6 (Network.flits_sent net);
  let util = Network.link_utilisation net in
  check_int "three busy links" 3 (List.length util);
  List.iter (fun (_, flits) -> check_int "flits per link" 6 flits) util

let test_send_equals_latency () =
  let net = Network.create (paper_mesh ()) in
  check_int "send returns latency"
    (Network.latency net ~src:2 ~dst:9 ~class_:Message.Data)
    (Network.send net ~now:0 ~src:2 ~dst:9 ~class_:Message.Data)

let test_contention_queueing () =
  let net = Network.create ~contention:true (paper_mesh ()) in
  (* two data messages over the same first link at the same cycle: the
     second queues behind the first's flits *)
  let a = Network.send ~now:100 net ~src:0 ~dst:3 ~class_:Message.Data in
  let b = Network.send ~now:100 net ~src:0 ~dst:3 ~class_:Message.Data in
  check_int "first uncontended"
    (Network.latency net ~src:0 ~dst:3 ~class_:Message.Data)
    a;
  check_bool "second delayed" true (b > a);
  check_bool "queueing recorded" true (Network.queueing_cycles net > 0)

let test_contention_disjoint_paths_free () =
  let net = Network.create ~contention:true (paper_mesh ()) in
  ignore (Network.send ~now:50 net ~src:0 ~dst:1 ~class_:Message.Data);
  (* a message on disjoint links is unaffected *)
  let lat = Network.send ~now:50 net ~src:16 ~dst:17 ~class_:Message.Data in
  check_int "no delay on disjoint links"
    (Network.latency net ~src:16 ~dst:17 ~class_:Message.Data)
    lat

let test_contention_drains_over_time () =
  let net = Network.create ~contention:true (paper_mesh ()) in
  ignore (Network.send ~now:0 net ~src:0 ~dst:7 ~class_:Message.Data);
  (* much later, the links are free again *)
  let lat = Network.send ~now:1000 net ~src:0 ~dst:7 ~class_:Message.Data in
  check_int "free again"
    (Network.latency net ~src:0 ~dst:7 ~class_:Message.Data)
    lat

let test_no_contention_by_default () =
  let net = Network.create (paper_mesh ()) in
  check_bool "off by default" false (Network.contention net);
  ignore (Network.send ~now:0 net ~src:0 ~dst:3 ~class_:Message.Data);
  let lat = Network.send ~now:0 net ~src:0 ~dst:3 ~class_:Message.Data in
  check_int "no queueing without the model"
    (Network.latency net ~src:0 ~dst:3 ~class_:Message.Data)
    lat;
  check_int "queueing zero" 0 (Network.queueing_cycles net)

(* Without [charge_links] a send only counts its hops, so every
   per-link read refuses rather than report zeros. *)
let test_link_reads_need_charging () =
  let net = Network.create (paper_mesh ()) in
  ignore (Network.send net ~now:0 ~src:0 ~dst:5 ~class_:Message.Data);
  check_int "messages counted" 1 (Network.messages_sent net);
  let refused =
    Invalid_argument "Network: per-link flits read before charge_links"
  in
  Alcotest.check_raises "link_flits" refused (fun () ->
      ignore (Network.link_flits net 0));
  Alcotest.check_raises "read_link_flits" refused (fun () ->
      Network.read_link_flits net (Array.make (Network.num_links net) 0));
  Alcotest.check_raises "link_utilisation" refused (fun () ->
      ignore (Network.link_utilisation net))

let test_reset_traffic () =
  let net = Network.create (paper_mesh ()) in
  Network.charge_links net;
  ignore (Network.send net ~now:0 ~src:0 ~dst:5 ~class_:Message.Data);
  check_bool "busy links before reset" true
    (Network.link_utilisation net <> []);
  Network.reset_traffic net;
  check_int "messages zero" 0 (Network.messages_sent net);
  check_bool "no busy links" true (Network.link_utilisation net = [])

(* Golden differential trace: all-pairs sends on every fabric, with
   and without the contention model, at an advancing cycle. One digest
   covers each returned latency, every per-link flit count and
   reservation, and the queueing total. The literal was recorded from
   the list-based router, so it pins any reimplementation of the route
   walk to the same links in the same order. *)
let golden_fabrics () =
  [
    Topology.create ~rows:4 ~cols:8;
    Topology.create_torus ~rows:4 ~cols:8;
    Topology.create_ring ~tiles:12;
    Topology.create_crossbar ~tiles:8;
  ]

let send_trace_digest () =
  let b = Buffer.create 65536 in
  List.iter
    (fun topo ->
      List.iter
        (fun contention ->
          let net = Network.create ~contention topo in
          Network.charge_links net;
          let now = ref 0 in
          let n = Topology.tiles topo in
          for src = 0 to n - 1 do
            for dst = 0 to n - 1 do
              let class_ =
                if (src + dst) mod 3 = 0 then Message.Data else Message.Control
              in
              Printf.bprintf b "%d,"
                (Network.send ~now:!now net ~src ~dst ~class_);
              now := !now + ((src * dst) mod 3)
            done
          done;
          for i = 0 to Network.num_links net - 1 do
            Printf.bprintf b "[%d %d]" (Network.link_flits net i)
              (Network.link_free net i)
          done;
          Printf.bprintf b "q%d m%d f%d;" (Network.queueing_cycles net)
            (Network.messages_sent net) (Network.flits_sent net))
        [ false; true ])
    (golden_fabrics ());
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_send_golden_trace () =
  check Alcotest.string "all-pairs sends" "745a73d86f85cb4ff35ba3dd951305cc"
    (send_trace_digest ())

(* The send path is an integer loop over the route's segments: no
   list, no link record, no option box, on every fabric and both
   fidelity levels. *)
let test_send_no_alloc () =
  List.iter
    (fun topo ->
      List.iter
        (fun contention ->
          let net = Network.create ~contention topo in
          let n = Topology.tiles topo in
          let send k =
            ignore
              (Network.send net ~now:k ~src:(k mod n)
                 ~dst:(k * 7 mod n) ~class_:Message.Data)
          in
          for k = 1 to 100 do
            send k
          done;
          let w0 = Gc.minor_words () in
          for k = 1 to 10_000 do
            send k
          done;
          let per_call = (Gc.minor_words () -. w0) /. 10_000.0 in
          check_bool
            (Printf.sprintf "%s contention=%b: %.2f words/send"
               (Topology.kind_name (Topology.kind topo))
               contention per_call)
            true (per_call < 0.01))
        [ false; true ])
    (golden_fabrics ())

(* Route equivalence: the segment router against a plain reference
   spelled out here. The reference steps one tile at a time: X (along
   the row) to the destination column, then Y; on a torus or ring each
   axis goes the short way round, an exact half-way tie forward (+1);
   the crossbar is one direct hop. A grid hop leaving tile [f] in
   direction N/S/W/E uses link [f * 4 + 0/1/2/3]; a crossbar hop uses
   [src * tiles + dst]. *)
let reference_links topo ~src ~dst =
  let rows = Topology.rows topo and cols = Topology.cols topo in
  match Topology.kind topo with
  | Topology.Crossbar -> if src = dst then [] else [ (src * rows * cols) + dst ]
  | kind ->
    let wrap = kind <> Topology.Mesh in
    let delta n a b =
      if not wrap then b - a
      else
        let fwd = (((b - a) mod n) + n) mod n in
        if 2 * fwd <= n then fwd else fwd - n
    in
    let links = ref [] in
    let row = ref (src / cols) and col = ref (src mod cols) in
    let hop dir ~row' ~col' =
      links := ((((!row * cols) + !col) * 4) + dir) :: !links;
      row := (row' + rows) mod rows;
      col := (col' + cols) mod cols
    in
    let dx = delta cols !col (dst mod cols) in
    for _ = 1 to abs dx do
      if dx > 0 then hop 3 ~row':!row ~col':(!col + 1)
      else hop 2 ~row':!row ~col':(!col - 1)
    done;
    let dy = delta rows !row (dst / cols) in
    for _ = 1 to abs dy do
      if dy > 0 then hop 1 ~row':(!row + 1) ~col':!col
      else hop 0 ~row':(!row - 1) ~col':!col
    done;
    check_int "reference reaches dst" dst ((!row * cols) + !col);
    List.rev !links

let segment_links topo ~src ~dst =
  let buf = Array.make (3 * Topology.max_segments) 0 in
  let n = Topology.segments topo buf ~src ~dst in
  List.concat
    (List.init n (fun k ->
         check_bool "segment count positive" true (buf.((3 * k) + 2) > 0);
         List.init buf.((3 * k) + 2) (fun j ->
             buf.(3 * k) + (j * buf.((3 * k) + 1)))))

let equivalence_fabrics () =
  [
    Topology.create ~rows:4 ~cols:8;
    Topology.create ~rows:16 ~cols:16;
    Topology.create_torus ~rows:4 ~cols:4;
    Topology.create_ring ~tiles:7;
    Topology.create_crossbar ~tiles:5;
  ]

let fabric_name topo =
  Printf.sprintf "%s %dx%d"
    (Topology.kind_name (Topology.kind topo))
    (Topology.rows topo) (Topology.cols topo)

let test_segments_match_reference () =
  List.iter
    (fun topo ->
      let n = Topology.tiles topo in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let name = Printf.sprintf "%s %d->%d" (fabric_name topo) src dst in
          let expected = reference_links topo ~src ~dst in
          check (Alcotest.list Alcotest.int) name expected
            (segment_links topo ~src ~dst);
          check (Alcotest.list Alcotest.int) (name ^ " route") expected
            (List.map (Topology.link_index topo)
               (Topology.route topo ~src ~dst));
          check_int (name ^ " hops") (List.length expected)
            (Topology.hops topo ~src ~dst)
        done
      done)
    (equivalence_fabrics ())

(* The reference network model over the reference links: every link
   charged the message's flits; under contention the head waits for
   each link to drain and then holds it for [flits] cycles. Returns the
   message's latency. *)
type reference_net = {
  flits : int array;
  free : int array;
  mutable queued : int;
}

let reference_net topo =
  {
    flits = Array.make (Topology.num_links topo) 0;
    free = Array.make (Topology.num_links topo) 0;
    queued = 0;
  }

let reference_send r topo ~contention ~now ~src ~dst ~class_ =
  let f = Message.flits class_ in
  let cursor = ref now in
  List.iter
    (fun l ->
      r.flits.(l) <- r.flits.(l) + f;
      if contention then begin
        let start = Int.max !cursor r.free.(l) in
        r.queued <- r.queued + (start - !cursor);
        r.free.(l) <- start + f;
        cursor := start
      end;
      cursor := !cursor + 2)
    (reference_links topo ~src ~dst);
  !cursor - now + Message.serialization_cycles class_

(* Every per-link read of [net] against the reference: [link_flits]
   and [link_free] link by link, the sampler's one-pass
   [read_link_flits], and [link_utilisation] (non-zero links, densest
   first). *)
let check_reads name r topo net =
  let nl = Topology.num_links topo in
  let bulk = Array.make nl (-1) in
  Network.read_link_flits net bulk;
  let expect l what expected got =
    if got <> expected then
      Alcotest.failf "%s link %d %s: expected %d, got %d" name l what expected
        got
  in
  for l = 0 to nl - 1 do
    expect l "link_flits" r.flits.(l) (Network.link_flits net l);
    expect l "read_link_flits" r.flits.(l) bulk.(l);
    expect l "link_free" r.free.(l) (Network.link_free net l)
  done;
  let util = Network.link_utilisation net in
  let by_index l =
    List.sort compare
      (List.map (fun (link, n) -> (Topology.link_index topo link, n)) l)
  in
  let expected =
    List.filter_map
      (fun link ->
        let n = r.flits.(Topology.link_index topo link) in
        if n > 0 then Some (link, n) else None)
      (Topology.links topo)
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    (name ^ " link_utilisation") (by_index expected) (by_index util);
  let counts = List.map snd util in
  check (Alcotest.list Alcotest.int) (name ^ " densest first")
    (List.sort (fun a b -> Int.compare b a) counts)
    counts;
  check_int (name ^ " queueing") r.queued (Network.queueing_cycles net)

let test_send_matches_reference () =
  List.iter
    (fun topo ->
      List.iter
        (fun contention ->
          let net = Network.create ~contention topo in
          Network.charge_links net;
          let r = reference_net topo in
          let now = ref 0 in
          let n = Topology.tiles topo in
          let name =
            Printf.sprintf "%s contention=%b" (fabric_name topo) contention
          in
          for src = 0 to n - 1 do
            for dst = 0 to n - 1 do
              let class_ =
                if (src + dst) mod 3 = 0 then Message.Data else Message.Control
              in
              check_int
                (Printf.sprintf "%s %d->%d latency" name src dst)
                (reference_send r topo ~contention ~now:!now ~src ~dst ~class_)
                (Network.send ~now:!now net ~src ~dst ~class_);
              now := !now + ((src * dst) mod 3)
            done
          done;
          check_reads name r topo net)
        [ false; true ])
    (equivalence_fabrics ())

(* Random traffic against the reference: seeded sequences of sends
   (both classes, the cycle advancing by 0-3) with every read checked
   at random points, and one [reset_traffic] half way, so the
   difference-form counters are read mid-stream, after a reset and
   after traffic resumes. *)
let test_random_traffic_matches_reference () =
  let rng = Random.State.make [| 30 |] in
  List.iter
    (fun topo ->
      List.iter
        (fun contention ->
          let net = Network.create ~contention topo in
          Network.charge_links net;
          let r = reference_net topo in
          let n = Topology.tiles topo in
          let now = ref 0 in
          for step = 1 to 600 do
            let name =
              Printf.sprintf "%s contention=%b step %d" (fabric_name topo)
                contention step
            in
            if step = 300 then begin
              Network.reset_traffic net;
              Array.fill r.flits 0 (Array.length r.flits) 0;
              Array.fill r.free 0 (Array.length r.free) 0;
              r.queued <- 0;
              check_reads (name ^ " after reset") r topo net
            end
            else if Random.State.int rng 10 = 0 then check_reads name r topo net
            else begin
              let src = Random.State.int rng n
              and dst = Random.State.int rng n in
              let class_ =
                if Random.State.bool rng then Message.Data else Message.Control
              in
              check_int (name ^ " latency")
                (reference_send r topo ~contention ~now:!now ~src ~dst ~class_)
                (Network.send ~now:!now net ~src ~dst ~class_);
              now := !now + Random.State.int rng 4
            end
          done;
          check_reads
            (Printf.sprintf "%s contention=%b end" (fabric_name topo)
               contention)
            r topo net)
        [ false; true ])
    (equivalence_fabrics ())

let test_send_range_check () =
  let net = Network.create (paper_mesh ()) in
  Alcotest.check_raises "bad dst"
    (Invalid_argument "Network.send: tile 32 out of range") (fun () ->
      ignore (Network.send net ~now:0 ~src:0 ~dst:32 ~class_:Message.Data));
  Alcotest.check_raises "bad src"
    (Invalid_argument "Network.send: tile -1 out of range") (fun () ->
      ignore (Network.send net ~now:0 ~src:(-1) ~dst:0 ~class_:Message.Data))

let () =
  Alcotest.run "mesh"
    [
      ( "coord",
        [
          Alcotest.test_case "roundtrip" `Quick test_coord_roundtrip;
          Alcotest.test_case "layout" `Quick test_coord_layout;
          Alcotest.test_case "manhattan" `Quick test_coord_manhattan;
        ] );
      ( "topology",
        [
          Alcotest.test_case "tile count" `Quick test_topology_tiles;
          Alcotest.test_case "route length" `Quick
            test_route_length_is_manhattan;
          Alcotest.test_case "self route" `Quick test_route_self_empty;
          Alcotest.test_case "connected path" `Quick
            test_route_is_connected_path;
          Alcotest.test_case "x before y" `Quick test_route_xy_order;
          Alcotest.test_case "range check" `Quick test_out_of_range_rejected;
          Alcotest.test_case "link count" `Quick test_links_count;
          Alcotest.test_case "link indices" `Quick test_link_index_distinct;
          QCheck_alcotest.to_alcotest prop_hops_symmetric;
          QCheck_alcotest.to_alcotest prop_hops_triangle;
        ] );
      ( "fabrics",
        [
          Alcotest.test_case "all routes connect" `Quick
            test_all_fabrics_route_everywhere;
          Alcotest.test_case "links indexable" `Quick
            test_all_fabric_links_indexable;
          Alcotest.test_case "torus wraparound" `Quick
            test_torus_uses_wraparound;
          Alcotest.test_case "ring shortest direction" `Quick
            test_ring_shortest_direction;
          Alcotest.test_case "crossbar single hop" `Quick
            test_crossbar_single_hop;
          Alcotest.test_case "constructor validation" `Quick
            test_fabric_constructors_validate;
          QCheck_alcotest.to_alcotest prop_torus_hops_bounded_by_mesh;
        ] );
      ("message", [ Alcotest.test_case "sizes" `Quick test_message_sizes ]);
      ( "network",
        [
          Alcotest.test_case "local latency" `Quick test_latency_local;
          Alcotest.test_case "latency scales" `Quick
            test_latency_scales_with_hops;
          Alcotest.test_case "custom latency" `Quick test_custom_latencies;
          Alcotest.test_case "traffic accounting" `Quick
            test_send_accounts_traffic;
          Alcotest.test_case "send = latency" `Quick test_send_equals_latency;
          Alcotest.test_case "contention queueing" `Quick
            test_contention_queueing;
          Alcotest.test_case "contention disjoint paths" `Quick
            test_contention_disjoint_paths_free;
          Alcotest.test_case "contention drains" `Quick
            test_contention_drains_over_time;
          Alcotest.test_case "contention off by default" `Quick
            test_no_contention_by_default;
          Alcotest.test_case "reset" `Quick test_reset_traffic;
          Alcotest.test_case "link reads need charging" `Quick
            test_link_reads_need_charging;
          Alcotest.test_case "golden trace" `Quick test_send_golden_trace;
          Alcotest.test_case "send no alloc" `Quick test_send_no_alloc;
          Alcotest.test_case "send range check" `Quick test_send_range_check;
          Alcotest.test_case "segments = reference route" `Quick
            test_segments_match_reference;
          Alcotest.test_case "send = reference model" `Quick
            test_send_matches_reference;
          Alcotest.test_case "random traffic = reference model" `Quick
            test_random_traffic_matches_reference;
        ] );
    ]
