open Fn_graph
open Testutil

let rng () = Fn_prng.Rng.create 97531

let test_structure () =
  let t = Fn_topology.Multibutterfly.build (rng ()) ~k:4 ~multiplicity:2 in
  let g = t.Fn_topology.Multibutterfly.graph in
  check_int "nodes" 80 (Graph.num_nodes g);
  check_bool "connected" true (Components.is_connected (Gview.Csr g));
  Check.csr_exn g

let test_levels_respected () =
  let k = 4 in
  let t = Fn_topology.Multibutterfly.build (rng ()) ~k ~multiplicity:2 in
  let g = t.Fn_topology.Multibutterfly.graph in
  let rows = 1 lsl k in
  Graph.iter_edges g (fun u v ->
      let lu = u / rows and lv = v / rows in
      if abs (lu - lv) <> 1 then Alcotest.failf "edge %d-%d skips levels" u v)

let test_splitter_targets_correct_half () =
  (* from level 0 every node must reach, at level 1, both the lower
     and the upper half-block of its (single, full-width) block *)
  let k = 3 in
  let t = Fn_topology.Multibutterfly.build (rng ()) ~k ~multiplicity:2 in
  let g = t.Fn_topology.Multibutterfly.graph in
  let rows = 1 lsl k in
  Array.iter
    (fun input ->
      let low = ref false and high = ref false in
      Graph.iter_neighbors g input (fun w ->
          if w / rows = 1 then begin
            let row = w mod rows in
            if row < rows / 2 then low := true else high := true
          end);
      if not (!low && !high) then Alcotest.fail "input misses a half-block")
    (* the inputs are level 0: nodes 0 .. rows - 1 *)
    (Array.init rows Fun.id)

let test_multiplicity_increases_edges () =
  let e mult =
    Graph.num_edges
      (Fn_topology.Multibutterfly.build (rng ()) ~k:4 ~multiplicity:mult)
        .Fn_topology.Multibutterfly.graph
  in
  check_bool "more matchings, more edges" true (e 3 > e 1)

let test_parameter_validation () =
  Alcotest.check_raises "k" (Invalid_argument "Multibutterfly.build: need 1 <= k <= 16")
    (fun () -> ignore (Fn_topology.Multibutterfly.build (rng ()) ~k:0 ~multiplicity:2));
  Alcotest.check_raises "mult" (Invalid_argument "Multibutterfly.build: multiplicity >= 1")
    (fun () -> ignore (Fn_topology.Multibutterfly.build (rng ()) ~k:3 ~multiplicity:0))

let () =
  Alcotest.run "multibutterfly"
    [
      ( "multibutterfly",
        [
          case "structure" test_structure;
          case "levels" test_levels_respected;
          case "splitter halves" test_splitter_targets_correct_half;
          case "multiplicity" test_multiplicity_increases_edges;
          case "validation" test_parameter_validation;
        ] );
    ]
