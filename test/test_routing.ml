open Fn_graph
open Fn_routing
open Testutil

let rng () = Fn_prng.Rng.create 1357
let mesh4, _ = Fn_topology.Mesh.cube ~d:2 ~side:4
let path5 = Fn_topology.Basic.path 5

let test_permutation_demand () =
  let d = Demand.permutation (rng ()) mesh4 in
  check_bool "no self pairs" true (Array.for_all (fun (s, t) -> s <> t) d);
  let sources = Array.map fst d |> Array.to_list |> List.sort_uniq Int.compare in
  check_int "each source once" (Array.length d) (List.length sources);
  let alive = Bitset.of_list 16 [ 0; 1; 2 ] in
  let d = Demand.permutation (rng ()) ~alive mesh4 in
  Array.iter
    (fun (s, t) ->
      check_bool "alive endpoints" true (Bitset.mem alive s && Bitset.mem alive t))
    d

let test_shortest_routes () =
  let r = Route.shortest path5 [| (0, 4); (1, 3) |] in
  check_int "none unroutable" 0 r.Route.unroutable;
  check_int "dilation" 4 (Route.dilation r);
  (* middle edges carry both routes *)
  check_int "edge congestion" 2 (Route.edge_congestion r)

let test_unroutable_counted () =
  let alive = Bitset.of_list 5 [ 0; 1; 3; 4 ] in
  let r = Route.shortest ~alive path5 [| (0, 4); (0, 1); (3, 4) |] in
  check_int "cut pair unroutable" 1 r.Route.unroutable;
  check_float_eps 1e-9 "fraction" (2.0 /. 3.0) (Route.routable_fraction r);
  (* dead source *)
  let r = Route.shortest ~alive path5 [| (2, 0) |] in
  check_int "dead source" 1 r.Route.unroutable

let test_stretch () =
  (* cycle: kill one node, route the long way round *)
  let c8 = Fn_topology.Basic.cycle 8 in
  let pairs = [| (0, 2) |] in
  let reference = Route.shortest c8 pairs in
  let alive = Bitset.complement (Bitset.of_list 8 [ 1 ]) in
  let faulty = Route.shortest ~alive c8 pairs in
  check_float "stretch 6/2" 3.0 (Route.stretch ~reference faulty);
  Alcotest.check_raises "mismatch" (Invalid_argument "Route.stretch: pair lists must match")
    (fun () -> ignore (Route.stretch ~reference (Route.shortest c8 [| (0, 1); (1, 2) |])))

let test_sim_single_packet () =
  let r = Route.shortest path5 [| (0, 4) |] in
  let s = Sim.run path5 r in
  check_int "makespan = distance" 4 s.Sim.makespan;
  check_int "delivered" 1 s.Sim.delivered;
  check_int "hops" 4 s.Sim.total_hops

let test_sim_contention () =
  (* two packets over the same directed path: second waits one step *)
  let r = Route.shortest path5 [| (0, 4); (0, 4) |] in
  let s = Sim.run path5 r in
  check_int "delivered" 2 s.Sim.delivered;
  check_int "makespan = d + 1" 5 s.Sim.makespan;
  check_bool "queue saw 2" true (s.Sim.max_queue >= 2)

let test_sim_no_packets () =
  let r = Route.shortest path5 [||] in
  let s = Sim.run path5 r in
  check_int "empty makespan" 0 s.Sim.makespan;
  check_int "none" 0 s.Sim.total

let test_sim_opposite_directions_no_conflict () =
  (* directed links are independent: 0->4 and 4->0 do not contend *)
  let r = Route.shortest path5 [| (0, 4); (4, 0) |] in
  let s = Sim.run path5 r in
  check_int "parallel makespan" 4 s.Sim.makespan

let test_sim_delivers_all_permutation () =
  let d = Demand.permutation (rng ()) mesh4 in
  let r = Route.shortest mesh4 d in
  let s = Sim.run mesh4 r in
  check_int "all delivered" s.Sim.total s.Sim.delivered;
  check_bool "makespan >= dilation" true (s.Sim.makespan >= Route.dilation r);
  check_bool "makespan >= congestion-ish" true
    (s.Sim.makespan >= Route.edge_congestion r / 2)

let prop_sim_bounds =
  prop "makespan between max(c,d)/2 and c*d + d" ~count:30
    (Testutil.gen_connected_graph ~max_n:12 ())
    (fun g ->
      let rng = Fn_prng.Rng.create 99 in
      let d = Demand.permutation rng g in
      if Array.length d = 0 then true
      else begin
        let r = Route.shortest g d in
        let s = Sim.run g r in
        let c = Route.edge_congestion r and dil = Route.dilation r in
        s.Sim.delivered = s.Sim.total
        && s.Sim.makespan >= dil
        && s.Sim.makespan <= (2 * c * max 1 dil) + dil
      end)

let () =
  Alcotest.run "routing"
    [
      ( "demand",
        [
          case "permutation" test_permutation_demand;
        ] );
      ( "route",
        [
          case "shortest" test_shortest_routes;
          case "unroutable" test_unroutable_counted;
          case "stretch" test_stretch;
        ] );
      ( "sim",
        [
          case "single packet" test_sim_single_packet;
          case "contention" test_sim_contention;
          case "no packets" test_sim_no_packets;
          case "opposite directions" test_sim_opposite_directions_no_conflict;
          case "full permutation" test_sim_delivers_all_permutation;
        ] );
      ("properties", [ prop_sim_bounds ]);
    ]
