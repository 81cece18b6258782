open Fn_graph
open Faultnet
open Testutil

let full n = Bitset.create_full n

let test_exact_finder_finds_witness () =
  (* barbell has node expansion 0.2; threshold 0.3 must find a set *)
  let g = Fn_topology.Basic.barbell 5 in
  let finder = Low_expansion.exact Fn_expansion.Cut.Node in
  match finder ~alive:(full 10) g ~threshold:0.3 with
  | None -> Alcotest.fail "expected a witness"
  | Some s ->
    let value = Fn_expansion.Cut.value_of (Gview.Csr g) Fn_expansion.Cut.Node s in
    check_bool "below threshold" true (value <= 0.3)

let test_exact_finder_none_above () =
  (* K6 has expansion 1.0; threshold 0.5 finds nothing *)
  let g = Fn_topology.Basic.complete 6 in
  let finder = Low_expansion.exact Fn_expansion.Cut.Node in
  check_bool "no witness" true (finder ~alive:(full 6) g ~threshold:0.5 = None)

let test_exact_finder_size_limit () =
  let g = Fn_topology.Basic.cycle 25 in
  let finder = Low_expansion.exact Fn_expansion.Cut.Node in
  Alcotest.check_raises "limit" (Invalid_argument "Low_expansion.exact: fragment too large")
    (fun () -> ignore (finder ~alive:(full 25) g ~threshold:0.5))

let test_default_returns_component () =
  let g = Graph.of_edges 6 [ (0, 1); (2, 3); (3, 4); (4, 5) ] in
  let finder = Low_expansion.default Fn_expansion.Cut.Node in
  match finder ~alive:(full 6) g ~threshold:0.0001 with
  | None -> Alcotest.fail "disconnected graph must yield a component"
  | Some s ->
    check_int "small component" 2 (Bitset.cardinal s);
    check_bool "zero boundary" true (Boundary.node_boundary_size (Gview.Csr g) s = 0)

let test_default_heuristic_on_large () =
  (* 10x10 mesh: node expansion ~ 0.1; generous threshold finds a set *)
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:10 in
  let finder = Low_expansion.default ~rng:(Fn_prng.Rng.create 1) Fn_expansion.Cut.Node in
  match finder ~alive:(full 100) g ~threshold:0.3 with
  | None -> Alcotest.fail "mesh has low-expansion sets"
  | Some s ->
    let value = Fn_expansion.Cut.value_of (Gview.Csr g) Fn_expansion.Cut.Node s in
    check_bool "below threshold" true (value <= 0.3);
    check_bool "at most half" true (2 * Bitset.cardinal s <= 100)

let test_default_none_on_expander_with_low_threshold () =
  let g = Fn_topology.Expander.random_regular (Fn_prng.Rng.create 2) ~n:64 ~d:6 in
  let finder = Low_expansion.default ~rng:(Fn_prng.Rng.create 3) Fn_expansion.Cut.Node in
  (* no set of expansion below 0.01 exists in a good expander *)
  check_bool "no witness" true (finder ~alive:(full 64) g ~threshold:0.01 = None)

let test_default_tiny_fragment () =
  let g = Fn_topology.Basic.path 2 in
  let finder = Low_expansion.default Fn_expansion.Cut.Node in
  (* single-node side has expansion 1; threshold 2 accepts *)
  match finder ~alive:(full 2) g ~threshold:2.0 with
  | Some s -> check_int "half" 1 (Bitset.cardinal s)
  | None -> Alcotest.fail "expected the trivial witness"

let prop_witness_always_below_threshold =
  prop "any witness returned satisfies the threshold" ~count:60
    (Testutil.gen_connected_graph ~max_n:12 ())
    (fun g ->
      let n = Graph.num_nodes g in
      let finder = Low_expansion.default ~rng:(Fn_prng.Rng.create 7) Fn_expansion.Cut.Node in
      match finder ~alive:(full n) g ~threshold:0.5 with
      | None -> true
      | Some s ->
        Fn_expansion.Cut.value_of (Gview.Csr g) Fn_expansion.Cut.Node s <= 0.5 +. 1e-9
        && 2 * Bitset.cardinal s <= n)

let () =
  Alcotest.run "low_expansion"
    [
      ( "exact",
        [
          case "finds witness" test_exact_finder_finds_witness;
          case "none above" test_exact_finder_none_above;
          case "size limit" test_exact_finder_size_limit;
        ] );
      ( "default",
        [
          case "disconnected -> component" test_default_returns_component;
          case "heuristic on mesh" test_default_heuristic_on_large;
          case "expander has none" test_default_none_on_expander_with_low_threshold;
          case "tiny fragment" test_default_tiny_fragment;
        ] );
      ("properties", [ prop_witness_always_below_threshold ]);
    ]
