open Fn_graph
open Fn_topology
open Testutil

(* The product generator cross-validates every dedicated grid
   generator: equal graphs, identical node numbering. *)

let test_mesh_is_product_of_paths () =
  let p3 = Basic.path 3 and p4 = Basic.path 4 in
  let product = Product.cartesian p3 p4 in
  let mesh, _ = Mesh.graph [| 3; 4 |] in
  check_bool "path3 x path4 = mesh 3x4" true (Graph.equal product mesh)

let test_torus_is_product_of_cycles () =
  let c4 = Basic.cycle 4 and c5 = Basic.cycle 5 in
  let product = Product.cartesian c4 c5 in
  let torus, _ = Torus.graph [| 4; 5 |] in
  check_bool "cycle4 x cycle5 = torus 4x5" true (Graph.equal product torus)

let test_hypercube_is_power_of_k2 () =
  let k2 = Basic.complete 2 in
  let product = Product.cartesian (Product.cartesian (Product.cartesian k2 k2) k2) k2 in
  let q4 = Hypercube.graph 4 in
  (* numbering: product appends new dimensions as the low-order digit,
     hypercube uses bit i for dimension i — same up to bit order, and
     both give isomorphic graphs.  With K2 factors, the digit and the
     bit coincide; check structural equality via sorted degree-preserving
     relabeling: in fact the numbering matches bit-reversal; compare
     invariants plus a direct isomorphism by bit reversal. *)
  check_int "nodes" 16 (Graph.num_nodes product);
  check_int "edges" (Graph.num_edges q4) (Graph.num_edges product);
  check_bool "4-regular" true (Check.regular product 4);
  let reverse_bits v =
    (v land 1) lsl 3 lor ((v lsr 1) land 1) lsl 2 lor ((v lsr 2) land 1) lsl 1
    lor ((v lsr 3) land 1)
  in
  let remapped =
    Graph.of_edge_array 16
      (Array.map (fun (u, v) -> (reverse_bits u, reverse_bits v)) (Graph.edges product))
  in
  check_bool "isomorphic to hypercube via bit reversal" true (Graph.equal remapped q4)

let test_3d_mesh_product () =
  let p2 = Basic.path 2 and p3 = Basic.path 3 in
  let product = Product.cartesian (Product.cartesian p2 p3) p3 in
  let mesh, _ = Mesh.graph [| 2; 3; 3 |] in
  check_bool "2x3x3 mesh" true (Graph.equal product mesh)

let test_product_degrees_add () =
  let g = Basic.cycle 5 and h = Basic.star 4 in
  let p = Product.cartesian g h in
  (* degree of (u1,u2) = deg_G(u1) + deg_H(u2) *)
  for u1 = 0 to 4 do
    for u2 = 0 to 3 do
      check_int "degree sum"
        (Graph.degree g u1 + Graph.degree h u2)
        (Graph.degree p ((u1 * 4) + u2))
    done
  done

let prop_product_node_count =
  prop "product multiplies nodes and mixes edges" ~count:40
    QCheck2.Gen.(pair (Testutil.gen_connected_graph ~max_n:5 ()) (Testutil.gen_connected_graph ~max_n:5 ()))
    (fun (g, h) ->
      let p = Fn_topology.Product.cartesian g h in
      Graph.num_nodes p = Graph.num_nodes g * Graph.num_nodes h
      && Graph.num_edges p
         = (Graph.num_edges g * Graph.num_nodes h) + (Graph.num_edges h * Graph.num_nodes g))

let prop_product_connected =
  prop "product of connected graphs is connected" ~count:30
    QCheck2.Gen.(pair (Testutil.gen_connected_graph ~max_n:5 ()) (Testutil.gen_connected_graph ~max_n:5 ()))
    (fun (g, h) -> Components.is_connected (Gview.Csr (Fn_topology.Product.cartesian g h)))

let () =
  Alcotest.run "product"
    [
      ( "cross-validation",
        [
          case "mesh = path x path" test_mesh_is_product_of_paths;
          case "torus = cycle x cycle" test_torus_is_product_of_cycles;
          case "hypercube = K2^d" test_hypercube_is_power_of_k2;
          case "3-D mesh" test_3d_mesh_product;
          case "degrees add" test_product_degrees_add;
        ] );
      ("properties", [ prop_product_node_count; prop_product_connected ]);
    ]
