open Fn_graph
open Testutil

let path5 = Fn_topology.Basic.path 5
let two_triangles = Graph.of_edges 6 [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5) ]

let test_components_connected () =
  let c = Components.compute (Gview.Csr path5) in
  check_int "one component" 1 c.Components.count;
  check_int "size" 5 (Components.largest_size c)

let test_components_disconnected () =
  let c = Components.compute (Gview.Csr two_triangles) in
  check_int "two components" 2 c.Components.count;
  check_int "largest" 3 (Components.largest_size c)

let test_components_masked () =
  let alive = Bitset.of_list 5 [ 0; 1; 3; 4 ] in
  let c = Components.compute ~alive (Gview.Csr path5) in
  check_int "split by dead node" 2 c.Components.count;
  check_int "dead label" (-1) c.Components.labels.(2)

let test_members_and_largest_members () =
  let c = Components.compute (Gview.Csr two_triangles) in
  let m = Components.members c 0 in
  check_int "members size" 3 (Bitset.cardinal m);
  let lm = Components.largest_members (Gview.Csr path5) in
  check_int "largest members" 5 (Bitset.cardinal lm);
  let empty_alive = Bitset.create 5 in
  let lm = Components.largest_members ~alive:empty_alive (Gview.Csr path5) in
  check_int "no alive -> empty" 0 (Bitset.cardinal lm)

(* the first smallest component, by id; None when connected or empty *)
let test_smallest_members () =
  let smallest ?alive g =
    Option.map Bitset.to_list (Components.smallest_members ?alive (Gview.Csr g))
  in
  check_bool "tie: first by id" true (smallest two_triangles = Some [ 0; 1; 2 ]);
  check_bool "masked" true (smallest ~alive:(Bitset.of_list 5 [ 0; 1; 3 ]) path5 = Some [ 3 ]);
  check_bool "connected" true (smallest path5 = None);
  check_bool "no alive" true (smallest ~alive:(Bitset.create 5) path5 = None)

let test_is_connected () =
  check_bool "path" true (Components.is_connected (Gview.Csr path5));
  check_bool "two triangles" false (Components.is_connected (Gview.Csr two_triangles));
  check_bool "empty alive counts as connected" true
    (Components.is_connected ~alive:(Bitset.create 5) (Gview.Csr path5));
  check_bool "empty graph" true (Components.is_connected (Gview.Csr (Graph.empty 0)))

(* ---- boundaries ---- *)

let mesh4, _ = Fn_topology.Mesh.cube ~d:2 ~side:4

let test_node_boundary_path () =
  let u = Bitset.of_list 5 [ 0; 1 ] in
  let b = Boundary.node_boundary (Gview.Csr path5) u in
  check_bool "boundary is {2}" true (Bitset.to_list b = [ 2 ]);
  check_int "size" 1 (Boundary.node_boundary_size (Gview.Csr path5) u)

let test_node_boundary_mesh_corner () =
  let u = Bitset.of_list 16 [ 0 ] in
  check_int "corner has 2 neighbours" 2 (Boundary.node_boundary_size (Gview.Csr mesh4) u);
  let u = Bitset.of_list 16 [ 5 ] in
  check_int "interior has 4" 4 (Boundary.node_boundary_size (Gview.Csr mesh4) u)

let test_edge_boundary () =
  (* left 2x4 half of the 4x4 mesh: 4 crossing edges *)
  let u = Bitset.of_list 16 [ 0; 1; 4; 5; 8; 9; 12; 13 ] in
  check_int "half mesh cut" 4 (Boundary.edge_boundary_size (Gview.Csr mesh4) u)

let test_masked_boundary () =
  let u = Bitset.of_list 5 [ 0; 1 ] in
  let alive = Bitset.of_list 5 [ 0; 1; 3; 4 ] in
  check_int "dead boundary node not counted" 0 (Boundary.node_boundary_size ~alive (Gview.Csr path5) u);
  check_int "dead edge endpoint not counted" 0 (Boundary.edge_boundary_size ~alive (Gview.Csr path5) u)

let test_expansions () =
  let u = Bitset.of_list 5 [ 0; 1 ] in
  check_float "node expansion" 0.5 (Boundary.node_expansion (Gview.Csr path5) u);
  check_float "edge expansion" 0.5 (Boundary.edge_expansion (Gview.Csr path5) u);
  Alcotest.check_raises "empty set" (Invalid_argument "Boundary.node_expansion: empty set")
    (fun () -> ignore (Boundary.node_expansion (Gview.Csr path5) (Bitset.create 5)));
  Alcotest.check_raises "full set" (Invalid_argument "Boundary.edge_expansion: empty side")
    (fun () -> ignore (Boundary.edge_expansion (Gview.Csr path5) (Bitset.create_full 5)))

let prop_boundary_disjoint_from_set =
  prop "node boundary is outside the set"
    (Testutil.gen_graph_and_subset ~max_n:10 ())
    (fun (g, u) ->
      let b = Boundary.node_boundary (Gview.Csr g) u in
      Bitset.disjoint b u)

let prop_edge_boundary_symmetric =
  prop "edge boundary of U equals edge boundary of complement"
    (Testutil.gen_graph_and_subset ~max_n:10 ())
    (fun (g, u) ->
      Boundary.edge_boundary_size (Gview.Csr g) u = Boundary.edge_boundary_size (Gview.Csr g) (Bitset.complement u))

let prop_boundary_le_edge_boundary =
  prop "node boundary <= edge boundary"
    (Testutil.gen_graph_and_subset ~max_n:10 ())
    (fun (g, u) -> Boundary.node_boundary_size (Gview.Csr g) u <= Boundary.edge_boundary_size (Gview.Csr g) u)

(* ---- differential: generation-stamped Scratch vs plain counts ----
   A single scratch is reused across every query (the Prune access
   pattern); each result must equal the allocating implementation. *)

let gen_graph_sets_mask =
  let open QCheck2.Gen in
  Testutil.gen_connected_graph ~max_n:10 () >>= fun g ->
  let n = Graph.num_nodes g in
  let gen_mask =
    int_range 1 ((1 lsl n) - 1) >>= fun m ->
    let s = Bitset.create n in
    for v = 0 to n - 1 do
      if (m lsr v) land 1 = 1 then Bitset.add s v
    done;
    return s
  in
  list_size (int_range 1 6) gen_mask >>= fun sets ->
  gen_mask >>= fun alive -> return (g, sets, alive)

let prop_scratch_node_boundary_matches =
  prop "reused Scratch node counts equal fresh node_boundary_size" ~count:200
    gen_graph_sets_mask (fun (g, sets, alive) ->
      let scratch = Boundary.Scratch.create (Graph.num_nodes g) in
      List.for_all
        (fun u ->
          Boundary.Scratch.node_boundary_size scratch (Gview.Csr g) u = Boundary.node_boundary_size (Gview.Csr g) u
          && Boundary.Scratch.node_boundary_size scratch ~alive (Gview.Csr g) u
             = Boundary.node_boundary_size ~alive (Gview.Csr g) u)
        sets)

let prop_scratch_edge_boundary_matches =
  prop "reused Scratch edge counts equal fresh edge_boundary_size" ~count:200
    gen_graph_sets_mask (fun (g, sets, alive) ->
      let scratch = Boundary.Scratch.create (Graph.num_nodes g) in
      List.for_all
        (fun u ->
          Boundary.Scratch.edge_boundary_size scratch (Gview.Csr g) u = Boundary.edge_boundary_size (Gview.Csr g) u
          && Boundary.Scratch.edge_boundary_size scratch ~alive (Gview.Csr g) u
             = Boundary.edge_boundary_size ~alive (Gview.Csr g) u)
        sets)

let test_scratch_universe_check () =
  let scratch = Boundary.Scratch.create 4 in
  Alcotest.check_raises "universe mismatch"
    (Invalid_argument "Boundary.Scratch: universe size mismatch") (fun () ->
      ignore (Boundary.Scratch.node_boundary_size scratch (Gview.Csr path5) (Bitset.of_list 5 [ 0 ])))

let () =
  Alcotest.run "components_boundary"
    [
      ( "components",
        [
          case "connected" test_components_connected;
          case "disconnected" test_components_disconnected;
          case "masked" test_components_masked;
          case "members" test_members_and_largest_members;
          case "smallest members" test_smallest_members;
          case "is_connected" test_is_connected;
        ] );
      ( "boundary",
        [
          case "path node boundary" test_node_boundary_path;
          case "mesh node boundary" test_node_boundary_mesh_corner;
          case "edge boundary" test_edge_boundary;
          case "masked" test_masked_boundary;
          case "expansions" test_expansions;
        ] );
      ( "properties",
        [
          prop_boundary_disjoint_from_set;
          prop_edge_boundary_symmetric;
          prop_boundary_le_edge_boundary;
        ] );
      ( "scratch",
        [
          case "universe check" test_scratch_universe_check;
          prop_scratch_node_boundary_matches;
          prop_scratch_edge_boundary_matches;
        ] );
    ]
