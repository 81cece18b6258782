open Fn_graph
open Testutil

let test_singletons () =
  let uf = Union_find.create 5 in
  check_int "max size" 1 (Union_find.max_component_size uf);
  check_bool "not yet merged" true (Union_find.union uf 0 1)

let test_union_merges () =
  let uf = Union_find.create 6 in
  check_bool "first union" true (Union_find.union uf 0 1);
  check_bool "redundant union" false (Union_find.union uf 1 0);
  check_int "pair size" 2 (Union_find.max_component_size uf);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 2);
  check_int "max size" 4 (Union_find.max_component_size uf);
  check_bool "merged through 2" false (Union_find.union uf 1 3)

let test_chain_unions () =
  let n = 1000 in
  let uf = Union_find.create n in
  for i = 0 to n - 2 do
    ignore (Union_find.union uf i (i + 1))
  done;
  check_int "max = n" n (Union_find.max_component_size uf);
  check_bool "ends connected" false (Union_find.union uf 0 (n - 1))

let test_empty_uf () =
  let uf = Union_find.create 0 in
  check_int "max size" 0 (Union_find.max_component_size uf)

let prop_union_find_vs_components =
  prop "union-find agrees with BFS components" ~count:100
    (Testutil.gen_any_graph ~max_n:20 ())
    (fun g ->
      let n = Graph.num_nodes g in
      let uf = Union_find.create n in
      let merges = ref 0 in
      Graph.iter_edges g (fun u v -> if Union_find.union uf u v then incr merges);
      let comps = Components.compute (Gview.Csr g) in
      n - !merges = comps.Components.count
      && Union_find.max_component_size uf = Components.largest_size comps)

let () =
  Alcotest.run "union_find"
    [
      ( "unit",
        [
          case "singletons" test_singletons;
          case "union merges" test_union_merges;
          case "chain" test_chain_unions;
          case "empty" test_empty_uf;
        ] );
      ("properties", [ prop_union_find_vs_components ]);
    ]
