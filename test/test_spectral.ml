open Fn_graph
open Fn_expansion
open Testutil

let pi = 4.0 *. atan 1.0

let test_lambda2_cycle () =
  (* normalized Laplacian of C_n has lambda2 = 1 - cos(2 pi / n) *)
  List.iter
    (fun n ->
      let r = Spectral.lambda2 (Gview.Csr (Fn_topology.Basic.cycle n)) in
      let expected = 1.0 -. cos (2.0 *. pi /. float_of_int n) in
      check_float_eps 1e-4
        (Printf.sprintf "lambda2 of C%d" n)
        expected r.Spectral.lambda2)
    [ 6; 10; 16 ]

let test_lambda2_complete () =
  (* K_n: lambda2 = n/(n-1) *)
  let r = Spectral.lambda2 (Gview.Csr (Fn_topology.Basic.complete 10)) in
  check_float_eps 1e-4 "lambda2 of K10" (10.0 /. 9.0) r.Spectral.lambda2

let test_lambda2_disconnected_is_zero () =
  let g = Graph.of_edges 6 [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  let r = Spectral.lambda2 (Gview.Csr g) in
  check_float_eps 1e-6 "disconnected lambda2 ~ 0" 0.0 r.Spectral.lambda2

let test_fiedler_separates_barbell () =
  (* the Fiedler vector must place the two cliques on opposite sides *)
  let g = Fn_topology.Basic.barbell 6 in
  let r = Spectral.lambda2 (Gview.Csr g) in
  let f = r.Spectral.fiedler in
  let side v = f.(v) > 0.0 in
  let left_side = side 0 in
  for v = 1 to 5 do
    check_bool "left clique together" true (side v = left_side)
  done;
  for v = 6 to 11 do
    check_bool "right clique opposite" true (side v <> left_side)
  done

let test_cheeger_sandwich () =
  (* for d-regular graphs: lambda2/2 <= phi <= sqrt(2 lambda2) where
     phi = edge expansion / d on near-balanced optima; check the exact
     conductance of small graphs sits inside the sandwich *)
  List.iter
    (fun (name, g, d) ->
      let r = Spectral.lambda2 (Gview.Csr g) in
      let exact = (Exact.edge_expansion g).Cut.value in
      let phi = exact /. float_of_int d in
      check_bool (name ^ ": phi >= lambda2/2") true (phi >= Spectral.cheeger_lower r -. 1e-6))
    [
      ("C12", Fn_topology.Basic.cycle 12, 2);
      ("Q3", Fn_topology.Hypercube.graph 3, 3);
      ("K8", Fn_topology.Basic.complete 8, 7);
    ]

let test_alive_mask_restriction () =
  (* a cycle with half the nodes dead behaves like a path *)
  let g = Fn_topology.Basic.cycle 12 in
  let alive = Bitset.of_list 12 [ 0; 1; 2; 3; 4; 5 ] in
  let r = Spectral.lambda2 ~alive (Gview.Csr g) in
  check_bool "positive for connected fragment" true (r.Spectral.lambda2 > 1e-4);
  (* dead nodes have zero fiedler entries *)
  for v = 6 to 11 do
    check_float "dead entry" 0.0 r.Spectral.fiedler.(v)
  done

let test_conductance_conversion () =
  let g = Fn_topology.Basic.cycle 8 in
  check_float "phi to alpha_e lower" 0.1 (Spectral.conductance_to_edge_expansion_lb (Gview.Csr g) 0.1)

let test_isolated_alive_nodes_tolerated () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let r = Spectral.lambda2 (Gview.Csr g) in
  check_bool "finite" true (Float.is_finite r.Spectral.lambda2)

let test_domains_bitwise_identical () =
  (* the parallel matvec splits rows across workers but keeps the
     per-row FP order, so every domain count gives the same bits;
     1024 nodes sits at the parallel threshold, and the expander's
     spectral gap keeps the iteration count small *)
  let g = Fn_topology.Expander.random_regular (Fn_prng.Rng.create 99) ~n:1024 ~d:6 in
  let a = Spectral.lambda2 (Gview.Csr g) in
  List.iter
    (fun domains ->
      let b = Spectral.lambda2 ~domains (Gview.Csr g) in
      check_bool
        (Printf.sprintf "lambda2 bits equal, domains=%d" domains)
        true
        (Int64.equal
           (Int64.bits_of_float a.Spectral.lambda2)
           (Int64.bits_of_float b.Spectral.lambda2));
      check_bool
        (Printf.sprintf "fiedler bits equal, domains=%d" domains)
        true
        (Array.for_all2
           (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
           a.Spectral.fiedler b.Spectral.fiedler))
    [ 1; 2; 3; 4 ]

let () =
  Alcotest.run "spectral"
    [
      ( "eigenvalues",
        [
          case "cycle lambda2" test_lambda2_cycle;
          case "complete lambda2" test_lambda2_complete;
          case "disconnected" test_lambda2_disconnected_is_zero;
        ] );
      ( "structure",
        [
          case "fiedler separates barbell" test_fiedler_separates_barbell;
          case "cheeger sandwich" test_cheeger_sandwich;
          case "alive mask" test_alive_mask_restriction;
          case "domains bitwise identical" test_domains_bitwise_identical;
          case "conductance conversion" test_conductance_conversion;
          case "isolated nodes" test_isolated_alive_nodes_tolerated;
        ] );
    ]
