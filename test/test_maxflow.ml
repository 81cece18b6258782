open Fn_graph
open Testutil

let path5 = Fn_topology.Basic.path 5
let cycle8 = Fn_topology.Basic.cycle 8
let mesh4, _ = Fn_topology.Mesh.cube ~d:2 ~side:4
let k5 = Fn_topology.Basic.complete 5
let q3 = Fn_topology.Hypercube.graph 3

let test_path_flow () =
  check_int "single path" 1 (Maxflow.max_flow path5 ~src:0 ~dst:4)

let test_cycle_flow () =
  check_int "two ways around" 2 (Maxflow.max_flow cycle8 ~src:0 ~dst:4);
  check_int "adjacent" 2 (Maxflow.max_flow cycle8 ~src:0 ~dst:1)

let test_complete_flow () =
  check_int "K5 flow" 4 (Maxflow.max_flow k5 ~src:0 ~dst:3)

let test_mesh_corner_flow () =
  (* opposite corners of the mesh: limited by corner degree 2 *)
  check_int "corner to corner" 2 (Maxflow.max_flow mesh4 ~src:0 ~dst:15)

let test_disconnected_flow () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  check_int "no path" 0 (Maxflow.max_flow g ~src:0 ~dst:3)

let test_alive_mask_flow () =
  (* cutting one side of the cycle halves the flow *)
  let alive = Bitset.complement (Bitset.of_list 8 [ 6 ]) in
  check_int "masked cycle" 1 (Maxflow.max_flow ~alive cycle8 ~src:0 ~dst:4)

let test_endpoint_validation () =
  Alcotest.check_raises "same" (Invalid_argument "Maxflow: endpoints must differ") (fun () ->
      ignore (Maxflow.max_flow path5 ~src:2 ~dst:2));
  Alcotest.check_raises "range" (Invalid_argument "Maxflow: endpoint out of range") (fun () ->
      ignore (Maxflow.max_flow path5 ~src:0 ~dst:7));
  let alive = Bitset.of_list 5 [ 0; 1 ] in
  Alcotest.check_raises "dead" (Invalid_argument "Maxflow: endpoints must be alive")
    (fun () -> ignore (Maxflow.max_flow ~alive path5 ~src:0 ~dst:4))

let test_vertex_disjoint () =
  check_int "path" 1 (Maxflow.vertex_disjoint_paths path5 ~src:0 ~dst:4);
  check_int "cycle" 2 (Maxflow.vertex_disjoint_paths cycle8 ~src:0 ~dst:4);
  check_int "hypercube Menger" 3 (Maxflow.vertex_disjoint_paths q3 ~src:0 ~dst:7);
  check_int "complete" 4 (Maxflow.vertex_disjoint_paths k5 ~src:0 ~dst:1);
  (* a theta graph: two nodes joined by 3 internally disjoint paths *)
  let theta =
    Graph.of_edges 8 [ (0, 2); (2, 1); (0, 3); (3, 4); (4, 1); (0, 5); (5, 6); (6, 7); (7, 1) ]
  in
  check_int "theta" 3 (Maxflow.vertex_disjoint_paths theta ~src:0 ~dst:1)

let test_vertex_le_edge () =
  (* Menger: vertex-disjoint <= edge-disjoint *)
  List.iter
    (fun (g, s, t) ->
      check_bool "vertex <= edge" true
        (Maxflow.vertex_disjoint_paths g ~src:s ~dst:t <= Maxflow.max_flow g ~src:s ~dst:t))
    [ (mesh4, 0, 15); (q3, 0, 7); (k5, 0, 2); (cycle8, 1, 5) ]

let test_edge_connectivity () =
  check_int "path" 1 (Maxflow.edge_connectivity path5);
  check_int "cycle" 2 (Maxflow.edge_connectivity cycle8);
  check_int "K5" 4 (Maxflow.edge_connectivity k5);
  check_int "Q3" 3 (Maxflow.edge_connectivity q3);
  let torus, _ = Fn_topology.Torus.cube ~d:2 ~side:4 in
  check_int "torus" 4 (Maxflow.edge_connectivity torus);
  check_int "disconnected" 0 (Maxflow.edge_connectivity (Graph.of_edges 4 [ (0, 1); (2, 3) ]));
  check_int "single node" 0 (Maxflow.edge_connectivity (Graph.empty 1))

let prop_flow_bounded_by_degrees =
  prop "flow <= min(deg src, deg dst)" ~count:60
    (Testutil.gen_connected_graph ~max_n:10 ())
    (fun g ->
      let n = Graph.num_nodes g in
      Maxflow.max_flow g ~src:0 ~dst:(n - 1)
      <= min (Graph.degree g 0) (Graph.degree g (n - 1)))

let prop_connectivity_le_min_degree =
  prop "edge connectivity <= min degree" ~count:40
    (Testutil.gen_connected_graph ~max_n:10 ())
    (fun g -> Maxflow.edge_connectivity g <= Graph.min_degree g)

let () =
  Alcotest.run "maxflow"
    [
      ( "flow",
        [
          case "path" test_path_flow;
          case "cycle" test_cycle_flow;
          case "complete" test_complete_flow;
          case "mesh corners" test_mesh_corner_flow;
          case "disconnected" test_disconnected_flow;
          case "alive mask" test_alive_mask_flow;
          case "validation" test_endpoint_validation;
        ] );
      ( "cuts and Menger",
        [
          case "vertex disjoint" test_vertex_disjoint;
          case "vertex <= edge" test_vertex_le_edge;
          case "edge connectivity" test_edge_connectivity;
        ] );
      ( "properties",
        [ prop_flow_bounded_by_degrees; prop_connectivity_le_min_degree ]
      );
    ]
