open Fn_graph
open Faultnet
open Testutil

let path5 = Fn_topology.Basic.path 5
let cycle6 = Fn_topology.Basic.cycle 6

let test_is_compact_path () =
  check_bool "prefix compact" true (Compact.is_compact (Gview.Csr path5) (Bitset.of_list 5 [ 0; 1 ]));
  check_bool "middle not compact" false (Compact.is_compact (Gview.Csr path5) (Bitset.of_list 5 [ 2 ]));
  check_bool "empty not compact" false (Compact.is_compact (Gview.Csr path5) (Bitset.create 5));
  check_bool "everything not compact" false (Compact.is_compact (Gview.Csr path5) (Bitset.create_full 5))

let test_is_compact_masked () =
  let alive = Bitset.of_list 5 [ 0; 1; 2 ] in
  check_bool "prefix of fragment" true (Compact.is_compact ~alive (Gview.Csr path5) (Bitset.of_list 5 [ 0 ]));
  check_bool "disconnecting middle" false
    (Compact.is_compact ~alive (Gview.Csr path5) (Bitset.of_list 5 [ 1 ]))

let test_enumerate_path () =
  (* compact sets of P_n are prefixes and suffixes: 2(n-1) *)
  List.iter
    (fun n ->
      let sets = Compact.enumerate (Fn_topology.Basic.path n) in
      check_int (Printf.sprintf "P%d compact sets" n) (2 * (n - 1)) (List.length sets))
    [ 3; 4; 5; 6 ]

let test_enumerate_cycle () =
  (* compact sets of C_n are proper arcs: n(n-1)? no — arcs of each
     length 1..n-1 starting anywhere: n*(n-1) total, but each set is
     counted once: n choices of start * (n-1) lengths = n(n-1) sets *)
  let sets = Compact.enumerate cycle6 in
  check_int "C6 compact sets" 30 (List.length sets)

let test_enumerate_complete () =
  (* every proper nonempty subset of K_n is compact *)
  let sets = Compact.enumerate (Fn_topology.Basic.complete 4) in
  check_int "K4 compact sets" 14 (List.length sets)

let test_enumerate_all_are_compact () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:3 in
  let sets = Compact.enumerate g in
  List.iter
    (fun s ->
      if not (Compact.is_compact (Gview.Csr g) s) then
        Alcotest.failf "enumerated non-compact set %s" (Format.asprintf "%a" Bitset.pp s))
    sets

let test_enumerate_limit () =
  Alcotest.check_raises "limit" (Invalid_argument "Compact.enumerate: graph too large")
    (fun () -> ignore (Compact.enumerate (Fn_topology.Basic.cycle 21)))

let test_compactify_already_compact () =
  let s = Bitset.of_list 5 [ 0; 1 ] in
  let k = Compact.compactify (Gview.Csr path5) s in
  check_bool "unchanged" true (Bitset.equal k s)

let test_compactify_middle_of_path () =
  (* S = {2} in P5 splits the complement; K must be compact with edge
     ratio <= S's (S has ratio 2/1 = 2) *)
  let s = Bitset.of_list 5 [ 2 ] in
  let k = Compact.compactify (Gview.Csr path5) s in
  check_bool "result compact" true (Compact.is_compact (Gview.Csr path5) k);
  let ratio set =
    float_of_int (Boundary.edge_boundary_size (Gview.Csr path5) set)
    /. float_of_int (Bitset.cardinal set)
  in
  check_bool "ratio no worse" true (ratio k <= ratio s +. 1e-9)

let test_compactify_rejects () =
  Alcotest.check_raises "disconnected S" (Invalid_argument "Compact.compactify: S not connected")
    (fun () -> ignore (Compact.compactify (Gview.Csr path5) (Bitset.of_list 5 [ 0; 2 ])));
  Alcotest.check_raises "everything" (Invalid_argument "Compact.compactify: S is everything")
    (fun () -> ignore (Compact.compactify (Gview.Csr path5) (Bitset.create_full 5)))

let test_random_compact () =
  let rng = Fn_prng.Rng.create 66 in
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:6 in
  for _ = 1 to 30 do
    match Compact.random_compact rng g ~target_size:(1 + Fn_prng.Rng.int rng 17) with
    | None -> ()
    | Some u ->
      if not (Compact.is_compact (Gview.Csr g) u) then Alcotest.fail "random_compact returned non-compact"
  done

let test_random_compact_degenerate () =
  let rng = Fn_prng.Rng.create 66 in
  check_bool "too small" true (Compact.random_compact rng path5 ~target_size:3 = None);
  let disconnected = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  check_bool "disconnected" true (Compact.random_compact rng disconnected ~target_size:1 = None)

(* Lemma 3.3 as a property: compactify never increases the edge ratio *)
let gen_graph_with_connected_set =
  QCheck2.Gen.(
    Testutil.gen_connected_graph ~max_n:10 () >>= fun g ->
    let n = Graph.num_nodes g in
    int_range 0 (n - 1) >>= fun src ->
    int_range 1 (max 1 (n / 2)) >>= fun size ->
    let s = Bfs.ball_of_size (Gview.Csr g) src size in
    return (g, s))

let prop_compactify_lemma33 =
  prop "Lemma 3.3: K_G(S) compact with edge ratio <= S's" ~count:150
    gen_graph_with_connected_set (fun (g, s) ->
      let n = Graph.num_nodes g in
      if Bitset.cardinal s = 0 || Bitset.cardinal s >= n then true
      else begin
        let k = Compact.compactify (Gview.Csr g) s in
        let ratio set =
          float_of_int (Boundary.edge_boundary_size (Gview.Csr g) set)
          /. float_of_int (Bitset.cardinal set)
        in
        Compact.is_compact (Gview.Csr g) k && ratio k <= ratio s +. 1e-9
      end)

let prop_enumerate_symmetric =
  prop "enumerate is closed under complement" ~count:40
    (Testutil.gen_connected_graph ~max_n:8 ())
    (fun g ->
      let sets = Compact.enumerate g in
      List.for_all
        (fun s -> List.exists (fun t -> Bitset.equal t (Bitset.complement s)) sets)
        sets)

let () =
  Alcotest.run "compact"
    [
      ( "predicate",
        [ case "path cases" test_is_compact_path; case "masked" test_is_compact_masked ] );
      ( "enumerate",
        [
          case "path count" test_enumerate_path;
          case "cycle count" test_enumerate_cycle;
          case "complete count" test_enumerate_complete;
          case "all compact" test_enumerate_all_are_compact;
          case "size limit" test_enumerate_limit;
        ] );
      ( "compactify",
        [
          case "already compact" test_compactify_already_compact;
          case "splitting set" test_compactify_middle_of_path;
          case "rejects" test_compactify_rejects;
        ] );
      ( "random",
        [ case "samples compact" test_random_compact; case "degenerate" test_random_compact_degenerate ]
      );
      ("properties", [ prop_compactify_lemma33; prop_enumerate_symmetric ]);
    ]
