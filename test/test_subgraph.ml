open Fn_graph
open Testutil

let mesh4, _ = Fn_topology.Mesh.cube ~d:2 ~side:4

let test_induce_block () =
  (* top-left 2x2 block of the 4x4 mesh *)
  let keep = Bitset.of_list 16 [ 0; 1; 4; 5 ] in
  let sub = Subgraph.induce mesh4 keep in
  check_int "nodes" 4 (Graph.num_nodes sub.Subgraph.graph);
  check_int "edges" 4 (Graph.num_edges sub.Subgraph.graph);
  Check.csr_exn sub.Subgraph.graph

let test_mapping_roundtrip () =
  let keep = Bitset.of_list 16 [ 3; 7; 11; 15 ] in
  let sub = Subgraph.induce mesh4 keep in
  Array.iteri
    (fun new_id old_id ->
      check_int "of_parent inverse" new_id sub.Subgraph.of_parent.(old_id))
    sub.Subgraph.to_parent;
  check_int "unkept maps to -1" (-1) sub.Subgraph.of_parent.(0)

let test_empty_induce () =
  let sub = Subgraph.induce mesh4 (Bitset.create 16) in
  check_int "empty subgraph" 0 (Graph.num_nodes sub.Subgraph.graph)

let test_universe_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Subgraph.induce: universe mismatch")
    (fun () -> ignore (Subgraph.induce mesh4 (Bitset.create 5)))

let prop_induced_degrees_match_alive =
  prop "induced degree equals alive degree"
    (Testutil.gen_graph_and_subset ~max_n:10 ())
    (fun (g, keep) ->
      let sub = Subgraph.induce g keep in
      let ok = ref true in
      Array.iteri
        (fun new_id old_id ->
          let alive_degree = ref 0 in
          Graph.iter_neighbors g old_id (fun w -> if Bitset.mem keep w then incr alive_degree);
          if Graph.degree sub.Subgraph.graph new_id <> !alive_degree then
            ok := false)
        sub.Subgraph.to_parent;
      !ok)

let prop_induced_csr_valid =
  prop "induced subgraph CSR invariants"
    (Testutil.gen_graph_and_subset ~max_n:10 ())
    (fun (g, keep) ->
      match Check.csr (Subgraph.induce g keep).Subgraph.graph with
      | Ok () -> true
      | Error _ -> false)

let prop_induce_full_is_identity =
  prop "inducing on everything is the identity" (Testutil.gen_any_graph ~max_n:10 ())
    (fun g ->
      let sub = Subgraph.induce g (Bitset.create_full (Graph.num_nodes g)) in
      Graph.equal g sub.Subgraph.graph)

let () =
  Alcotest.run "subgraph"
    [
      ( "unit",
        [
          case "induce block" test_induce_block;
          case "mapping roundtrip" test_mapping_roundtrip;
          case "empty" test_empty_induce;
          case "universe mismatch" test_universe_mismatch;
        ] );
      ( "properties",
        [ prop_induced_degrees_match_alive; prop_induced_csr_valid; prop_induce_full_is_identity ]
      );
    ]
