(* Tests for the mesh topology and the packet-switched fabric. *)

module Engine = M3_sim.Engine
module Topology = M3_noc.Topology
module Fabric = M3_noc.Fabric

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- topology --- *)

let test_coords_roundtrip () =
  let t = Topology.create ~cols:4 ~rows:3 in
  check_int "nodes" 12 (Topology.node_count t);
  for id = 0 to 11 do
    let x, y = Topology.coords t id in
    check_int "roundtrip" id (Topology.node_at t ~x ~y)
  done

let test_route_endpoints_and_length () =
  let t = Topology.create ~cols:4 ~rows:4 in
  let src = Topology.node_at t ~x:0 ~y:0 in
  let dst = Topology.node_at t ~x:3 ~y:2 in
  let route = Topology.route t ~src ~dst in
  check_int "hops = manhattan" 5 (List.length route);
  check_int "hops function agrees" 5 (Topology.hops t ~src ~dst);
  (match route with
  | (first, _) :: _ -> check_int "starts at src" src first
  | [] -> Alcotest.fail "empty route");
  (match List.rev route with
  | (_, last) :: _ -> check_int "ends at dst" dst last
  | [] -> Alcotest.fail "empty route")

let test_route_is_xy () =
  let t = Topology.create ~cols:4 ~rows:4 in
  let src = Topology.node_at t ~x:0 ~y:0 in
  let dst = Topology.node_at t ~x:2 ~y:2 in
  let route = Topology.route t ~src ~dst in
  (* XY routing: first moves along the row (y stays 0), then along the
     column. *)
  let ys = List.map (fun (_, b) -> snd (Topology.coords t b)) route in
  Alcotest.(check (list int)) "x first, then y" [ 0; 0; 1; 2 ] ys

let test_route_self_empty () =
  let t = Topology.create ~cols:2 ~rows:2 in
  check_int "self route" 0 (List.length (Topology.route t ~src:3 ~dst:3))

let test_route_contiguous () =
  let t = Topology.create ~cols:5 ~rows:5 in
  let route = Topology.route t ~src:0 ~dst:24 in
  let rec contiguous = function
    | (_, b) :: (((c, _) :: _) as rest) -> b = c && contiguous rest
    | [ _ ] | [] -> true
  in
  check_bool "hops chain" true (contiguous route)

let test_for_nodes () =
  let t = Topology.for_nodes 17 in
  check_bool "fits" true (Topology.node_count t >= 17)

(* --- fabric --- *)

let make_fabric ?(config = Fabric.default_config) () =
  let engine = Engine.create () in
  let topo = Topology.create ~cols:4 ~rows:4 in
  (engine, Fabric.create engine topo ~config)

let test_transfer_latency_small () =
  let engine, fabric = make_fabric () in
  let arrived = ref (-1) in
  Fabric.transfer fabric ~src:0 ~dst:3 ~bytes:8 ~on_deliver:(fun () ->
      arrived := Engine.now engine);
  ignore (Engine.run engine);
  (* 3 hops * 3 cycles + ceil((8+8)/8) = 9 + 2 = 11. *)
  check_int "latency" 11 !arrived;
  check_int "matches pure_latency" 11
    (Fabric.pure_latency fabric ~src:0 ~dst:3 ~bytes:8)

let test_transfer_serialization_dominates () =
  let _, fabric = make_fabric () in
  let small = Fabric.pure_latency fabric ~src:0 ~dst:1 ~bytes:64 in
  let big = Fabric.pure_latency fabric ~src:0 ~dst:1 ~bytes:8192 in
  (* 8 KiB at 8 B/cycle is ≈ 1024 cycles of pure serialization. *)
  check_bool "big ≈ bytes/8" true (big - small >= 8192 / 8 - 64);
  check_bool "upper bound with packet headers" true (big < 1200)

let test_transfer_local_is_cheap () =
  let engine, fabric = make_fabric () in
  let at = ref 0 in
  Fabric.transfer fabric ~src:5 ~dst:5 ~bytes:4096 ~on_deliver:(fun () ->
      at := Engine.now engine);
  ignore (Engine.run engine);
  check_int "local delivery" 1 !at

let test_congestion_serializes () =
  let engine, fabric = make_fabric () in
  (* Two 4 KiB transfers over the same link, started simultaneously:
     the second must finish roughly one serialization time later. *)
  let t1 = ref 0 and t2 = ref 0 in
  Fabric.transfer fabric ~src:0 ~dst:1 ~bytes:4096 ~on_deliver:(fun () ->
      t1 := Engine.now engine);
  Fabric.transfer fabric ~src:0 ~dst:1 ~bytes:4096 ~on_deliver:(fun () ->
      t2 := Engine.now engine);
  ignore (Engine.run engine);
  let alone = Fabric.pure_latency fabric ~src:0 ~dst:1 ~bytes:4096 in
  check_bool "second delayed by sharing" true (!t2 - !t1 >= alone / 2);
  check_bool "link was busy" true (Fabric.link_busy_cycles fabric ~src:0 ~dst:1 > 1000)

let test_disjoint_paths_parallel () =
  let engine, fabric = make_fabric () in
  (* Transfers on disjoint routes do not delay each other. *)
  let t1 = ref 0 and t2 = ref 0 in
  Fabric.transfer fabric ~src:0 ~dst:1 ~bytes:4096 ~on_deliver:(fun () ->
      t1 := Engine.now engine);
  Fabric.transfer fabric ~src:14 ~dst:15 ~bytes:4096 ~on_deliver:(fun () ->
      t2 := Engine.now engine);
  ignore (Engine.run engine);
  check_int "same finish time" !t1 !t2

let test_stats_counters () =
  let engine, fabric = make_fabric () in
  Fabric.transfer fabric ~src:0 ~dst:2 ~bytes:3000 ~on_deliver:(fun () -> ());
  ignore (Engine.run engine);
  check_int "bytes counted" 3000 (Fabric.bytes_sent fabric);
  (* 3000 bytes in 1024-byte packets = 3 packets. *)
  check_int "packets" 3 (Fabric.packets_sent fabric)

let test_zero_byte_message () =
  let engine, fabric = make_fabric () in
  let arrived = ref false in
  Fabric.transfer fabric ~src:0 ~dst:1 ~bytes:0 ~on_deliver:(fun () ->
      arrived := true);
  ignore (Engine.run engine);
  check_bool "delivered" true !arrived

(* Routes are cached per (src, dst) pair in a flat table, where an
   out-of-range pair such as (0, 16) would alias the slot of (1, 0):
   it must raise, whatever routes are already cached. A pair within
   one node takes no route and must raise all the same. *)
let test_out_of_range_raises () =
  let engine, fabric = make_fabric () in
  List.iter
    (fun (src, dst) ->
      Fabric.transfer fabric ~src ~dst ~bytes:8 ~on_deliver:ignore)
    [ (1, 0); (0, 15); (15, 0); (3, 4) ];
  ignore (Engine.run engine);
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  List.iter
    (fun (src, dst) ->
      check_bool
        (Printf.sprintf "%d -> %d raises" src dst)
        true
        (raises (fun () ->
             Fabric.transfer fabric ~src ~dst ~bytes:8 ~on_deliver:ignore));
      check_bool
        (Printf.sprintf "%d -> %d latency raises" src dst)
        true
        (raises (fun () -> Fabric.pure_latency fabric ~src ~dst ~bytes:8)))
    [ (0, 16); (0, -1); (-1, 0); (16, 0); (3, 100); (-1, 17); (99, 99) ];
  check_int "an in-range node to itself takes 1 cycle" 1
    (Fabric.pure_latency fabric ~src:5 ~dst:5 ~bytes:8)

let wormhole_config = { Fabric.default_config with mode = `Wormhole }

let test_wormhole_uncontended_matches_packet () =
  (* Without contention, single-packet transfers are identical in both
     modes; multi-packet transfers differ only by the per-hop holding
     of the whole path (a few cycles per packet). *)
  let t_of config bytes =
    let engine, fabric = make_fabric ~config () in
    let at = ref 0 in
    Fabric.transfer fabric ~src:0 ~dst:5 ~bytes ~on_deliver:(fun () ->
        at := Engine.now engine);
    ignore (Engine.run engine);
    !at
  in
  List.iter
    (fun bytes ->
      check_int
        (Printf.sprintf "same uncontended latency for %d bytes" bytes)
        (t_of Fabric.default_config bytes)
        (t_of wormhole_config bytes))
    [ 0; 8; 512 ];
  let packet = t_of Fabric.default_config 4096 in
  let wormhole = t_of wormhole_config 4096 in
  let slack = 4 (* packets *) * 2 (* hops *) * 3 (* cycles/hop *) in
  check_bool
    (Printf.sprintf "4 KiB within path-holding slack (%d vs %d)" wormhole packet)
    true
    (abs (wormhole - packet) <= slack)

let test_wormhole_tree_saturation () =
  (* Flow A (0->3) stalls behind flow C on its last link; in wormhole
     mode the stalled worm keeps holding its FIRST link, so flow B
     (0->1) suffers — the packet model releases that link earlier. *)
  let run config =
    let engine, fabric = make_fabric ~config () in
    let b_done = ref 0 in
    (* C saturates link 2->3 first. *)
    Fabric.transfer fabric ~src:2 ~dst:3 ~bytes:8192 ~on_deliver:(fun () -> ());
    (* A: long worm crossing 0->1->2->3. *)
    Fabric.transfer fabric ~src:0 ~dst:3 ~bytes:8192 ~on_deliver:(fun () -> ());
    (* B: short transfer that only needs link 0->1. *)
    Fabric.transfer fabric ~src:0 ~dst:1 ~bytes:64 ~on_deliver:(fun () ->
        b_done := Engine.now engine);
    ignore (Engine.run engine);
    !b_done
  in
  let packet = run Fabric.default_config in
  let wormhole = run wormhole_config in
  check_bool
    (Printf.sprintf "wormhole blocks the bystander longer (%d vs %d)" wormhole
       packet)
    true (wormhole > packet)

let qcheck_latency_monotone_in_size =
  QCheck.Test.make ~name:"pure latency is monotone in size" ~count:100
    QCheck.(pair (int_bound 10000) (int_bound 10000))
    (fun (a, b) ->
      let _, fabric = make_fabric () in
      let la = Fabric.pure_latency fabric ~src:0 ~dst:5 ~bytes:(min a b) in
      let lb = Fabric.pure_latency fabric ~src:0 ~dst:5 ~bytes:(max a b) in
      la <= lb)

let qcheck_route_length_is_manhattan =
  QCheck.Test.make ~name:"route length equals manhattan distance" ~count:200
    QCheck.(pair (int_bound 24) (int_bound 24))
    (fun (src, dst) ->
      let t = Topology.create ~cols:5 ~rows:5 in
      List.length (Topology.route t ~src ~dst) = Topology.hops t ~src ~dst)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "noc.topology",
      [
        tc "coords roundtrip" test_coords_roundtrip;
        tc "route endpoints and length" test_route_endpoints_and_length;
        tc "route is dimension-ordered" test_route_is_xy;
        tc "self route empty" test_route_self_empty;
        tc "route hops chain" test_route_contiguous;
        tc "for_nodes fits" test_for_nodes;
        QCheck_alcotest.to_alcotest qcheck_route_length_is_manhattan;
      ] );
    ( "noc.fabric",
      [
        tc "small transfer latency" test_transfer_latency_small;
        tc "serialization dominates bulk" test_transfer_serialization_dominates;
        tc "local delivery" test_transfer_local_is_cheap;
        tc "congestion serializes shared link" test_congestion_serializes;
        tc "disjoint paths run in parallel" test_disjoint_paths_parallel;
        tc "statistics counters" test_stats_counters;
        tc "zero-byte message" test_zero_byte_message;
        tc "out-of-range node raises" test_out_of_range_raises;
        tc "wormhole matches packet when uncontended"
          test_wormhole_uncontended_matches_packet;
        tc "wormhole tree saturation" test_wormhole_tree_saturation;
        QCheck_alcotest.to_alcotest qcheck_latency_monotone_in_size;
      ] );
  ]
