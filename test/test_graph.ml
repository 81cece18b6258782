open Fn_graph
open Testutil

let triangle = Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ]

let test_counts () =
  check_int "nodes" 3 (Graph.num_nodes triangle);
  check_int "edges" 3 (Graph.num_edges triangle);
  check_int "degree" 2 (Graph.degree triangle 1);
  check_int "max degree" 2 (Graph.max_degree triangle);
  check_int "min degree" 2 (Graph.min_degree triangle)

let test_dedupe_and_orientation () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 0); (0, 1); (2, 3) ] in
  check_int "deduped edges" 2 (Graph.num_edges g);
  check_bool "has 0-1" true (Graph.has_edge g 0 1);
  check_bool "has 1-0" true (Graph.has_edge g 1 0);
  check_bool "no 0-2" false (Graph.has_edge g 0 2)

let test_rejects () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edge_array: self-loop")
    (fun () -> ignore (Graph.of_edges 3 [ (1, 1) ]));
  Alcotest.check_raises "range" (Invalid_argument "Graph.of_edge_array: endpoint out of range")
    (fun () -> ignore (Graph.of_edges 3 [ (0, 3) ]))

let test_neighbors_sorted () =
  let g = Graph.of_edges 5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  let row = ref [] in
  Graph.iter_neighbors g 2 (fun u -> row := u :: !row);
  check_bool "sorted row" true (List.rev !row = [ 0; 1; 3; 4 ])

let test_iter_edges_once () =
  let seen = ref [] in
  Graph.iter_edges triangle (fun u v -> seen := (u, v) :: !seen);
  check_bool "each edge once with u<v" true
    (List.sort Graph.compare_int_pair !seen = [ (0, 1); (0, 2); (1, 2) ])

let test_edges_array () =
  check_bool "edges array" true (Graph.edges triangle = [| (0, 1); (0, 2); (1, 2) |])

let test_empty () =
  let g = Graph.empty 5 in
  check_int "no edges" 0 (Graph.num_edges g);
  check_int "degree 0" 0 (Graph.degree g 3);
  check_int "max degree" 0 (Graph.max_degree g);
  let z = Graph.empty 0 in
  check_int "zero nodes" 0 (Graph.num_nodes z);
  check_int "min degree of empty" 0 (Graph.min_degree z)

let test_equal () =
  let g1 = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  let g2 = Graph.of_edges 3 [ (1, 2); (0, 1) ] in
  check_bool "order independent" true (Graph.equal g1 g2);
  check_bool "different" false (Graph.equal g1 triangle)

let test_fold_neighbors () =
  let sum = Graph.fold_neighbors triangle 0 (fun acc w -> acc + w) 0 in
  check_int "fold sum" 3 sum

let prop_csr_invariants =
  prop "generated graphs satisfy CSR invariants" ~count:200
    (Testutil.gen_any_graph ~max_n:15 ())
    (fun g -> match Check.csr g with Ok () -> true | Error _ -> false)

let prop_handshake =
  prop "sum of degrees = 2m" (Testutil.gen_any_graph ~max_n:15 ()) (fun g ->
      let total = ref 0 in
      for v = 0 to Graph.num_nodes g - 1 do
        total := !total + Graph.degree g v
      done;
      !total = 2 * Graph.num_edges g)

let prop_has_edge_symmetric =
  prop "has_edge symmetric" (Testutil.gen_any_graph ~max_n:10 ()) (fun g ->
      let n = Graph.num_nodes g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Graph.has_edge g u v <> Graph.has_edge g v u then ok := false
        done
      done;
      !ok)

let prop_roundtrip_through_edges =
  prop "of_edges (edges g) = g" (Testutil.gen_any_graph ~max_n:12 ()) (fun g ->
      Graph.equal g (Graph.of_edge_array (Graph.num_nodes g) (Graph.edges g)))

let test_builder_path () =
  let b = Builder.create 4 in
  List.iter (fun (u, v) -> Builder.add_edge b u v) [ (0, 1); (1, 2); (2, 3) ];
  let g = Builder.to_graph b in
  check_int "nodes" 4 (Graph.num_nodes g);
  check_int "edges" 3 (Graph.num_edges g)

let test_builder_growth () =
  let b = Builder.create 100 in
  for i = 0 to 98 do
    Builder.add_edge b i (i + 1)
  done;
  (* duplicates merge at freeze time *)
  for i = 0 to 98 do
    Builder.add_edge b (i + 1) i
  done;
  let g = Builder.to_graph b in
  check_int "merged edges" 99 (Graph.num_edges g)

let test_builder_rejects () =
  let b = Builder.create 3 in
  Alcotest.check_raises "loop" (Invalid_argument "Builder.add_edge: self-loop") (fun () ->
      Builder.add_edge b 1 1);
  Alcotest.check_raises "range" (Invalid_argument "Builder.add_edge: endpoint out of range")
    (fun () -> Builder.add_edge b 0 3)

let test_endpoint_arrays () =
  (* entries past [len] are ignored; direction and order do not matter *)
  let us = [| 2; 0; 3; 9 |] and vs = [| 1; 1; 2; 9 |] in
  let g = Graph.of_endpoint_arrays 4 ~us ~vs ~len:3 in
  check_bool "same as of_edges" true (Graph.equal g (Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ]))

let test_unsafe_of_csr () =
  (* the path 0 - 1 - 2 as prebuilt CSR rows *)
  let g = Graph.unsafe_of_csr ~n:3 ~xadj:[| 0; 1; 3; 4 |] ~adj:[| 1; 0; 2; 1 |] in
  check_bool "same graph as of_edges" true (Graph.equal g (Graph.of_edges 3 [ (0, 1); (1, 2) ]));
  check_int "degree from offsets" 2 (Graph.degree g 1)

let () =
  Alcotest.run "graph"
    [
      ( "csr",
        [
          case "counts" test_counts;
          case "dedupe" test_dedupe_and_orientation;
          case "rejects" test_rejects;
          case "sorted rows" test_neighbors_sorted;
          case "iter edges" test_iter_edges_once;
          case "edges array" test_edges_array;
          case "empty" test_empty;
          case "equal" test_equal;
          case "fold neighbors" test_fold_neighbors;
        ] );
      ( "builder",
        [
          case "path" test_builder_path;
          case "growth + merge" test_builder_growth;
          case "rejects" test_builder_rejects;
          case "endpoint arrays" test_endpoint_arrays;
          case "prebuilt CSR rows" test_unsafe_of_csr;
        ] );
      ( "properties",
        [
          prop_csr_invariants;
          prop_handshake;
          prop_has_edge_symmetric;
          prop_roundtrip_through_edges;
        ] );
    ]
