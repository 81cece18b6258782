open Fn_graph
open Testutil

let rng () = Fn_prng.Rng.create 4242

let test_single_node () =
  let can = Fn_topology.Can.create 2 in
  check_int "one node" 1 (Graph.num_nodes (Fn_topology.Can.graph can));
  check_float "owns everything" 1.0 (Fn_topology.Can.zone_volume can 0);
  let g = Fn_topology.Can.graph can in
  check_int "no self edges" 0 (Graph.num_edges g)

let test_volumes_sum_to_one () =
  let can = Fn_topology.Can.build (rng ()) ~d:3 ~n:64 in
  let total = ref 0.0 in
  for i = 0 to 63 do
    total := !total +. Fn_topology.Can.zone_volume can i
  done;
  check_float_eps 1e-9 "volumes partition the torus" 1.0 !total

let test_zones_disjoint () =
  (* sample points; each must lie in exactly one zone *)
  let r = rng () in
  let can = Fn_topology.Can.build r ~d:2 ~n:32 in
  for _ = 1 to 200 do
    let p = Array.init 2 (fun _ -> Fn_prng.Rng.unit_float r) in
    let owners = ref 0 in
    for i = 0 to 31 do
      let z = Fn_topology.Can.zone can i in
      let inside = ref true in
      Array.iteri
        (fun k x ->
          if not (x >= z.Fn_topology.Can.lo.(k) && x < z.Fn_topology.Can.hi.(k)) then
            inside := false)
        p;
      if !inside then incr owners
    done;
    check_int "exactly one owner" 1 !owners
  done

let test_overlay_connected () =
  List.iter
    (fun (d, n) ->
      let can = Fn_topology.Can.build (rng ()) ~d ~n in
      let g = Fn_topology.Can.graph can in
      check_int "node count" n (Graph.num_nodes g);
      check_bool (Printf.sprintf "overlay connected d=%d n=%d" d n) true
        (Components.is_connected (Gview.Csr g)))
    [ (1, 16); (2, 64); (3, 64); (4, 32) ]

let test_neighbor_predicate () =
  let can = Fn_topology.Can.build (rng ()) ~d:2 ~n:16 in
  for u = 0 to 15 do
    check_bool "irreflexive" false (Fn_topology.Can.are_neighbors can u u);
    for v = 0 to 15 do
      if Fn_topology.Can.are_neighbors can u v <> Fn_topology.Can.are_neighbors can v u then
        Alcotest.failf "asymmetric at %d %d" u v
    done
  done

let test_balance () =
  let can = Fn_topology.Can.create 2 in
  check_float "singleton balanced" 1.0 (Fn_topology.Can.balance can);
  let grown = Fn_topology.Can.build (rng ()) ~d:2 ~n:64 in
  check_bool "balance >= 1" true (Fn_topology.Can.balance grown >= 1.0)

let test_dimension_bounds () =
  Alcotest.check_raises "d too big" (Invalid_argument "Can.create: need 1 <= d <= 10")
    (fun () -> ignore (Fn_topology.Can.create 11))

let test_two_nodes_after_join () =
  let r = rng () in
  let can = Fn_topology.Can.create 2 in
  let id = Fn_topology.Can.join r can in
  check_int "new id" 1 id;
  check_int "two nodes" 2 (Graph.num_nodes (Fn_topology.Can.graph can));
  check_float_eps 1e-9 "halved" 0.5 (Fn_topology.Can.zone_volume can 0);
  check_float_eps 1e-9 "halved" 0.5 (Fn_topology.Can.zone_volume can 1);
  let g = Fn_topology.Can.graph can in
  check_int "joined zones are neighbours" 1 (Graph.num_edges g)

let () =
  Alcotest.run "can"
    [
      ( "zones",
        [
          case "single node" test_single_node;
          case "volumes sum to 1" test_volumes_sum_to_one;
          case "zones disjoint" test_zones_disjoint;
          case "two nodes" test_two_nodes_after_join;
          case "balance" test_balance;
          case "dimension bounds" test_dimension_bounds;
        ] );
      ( "overlay",
        [
          case "connected" test_overlay_connected;
          case "neighbor predicate" test_neighbor_predicate;
        ] );
    ]
