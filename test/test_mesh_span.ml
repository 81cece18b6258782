open Fn_graph
open Faultnet
open Testutil

let mesh6, geo6 = Fn_topology.Mesh.cube ~d:2 ~side:6
let mesh3d, geo3d = Fn_topology.Mesh.cube ~d:3 ~side:3

let rect_set geo rows cols =
  let s = Bitset.create geo.Fn_topology.Mesh.size in
  List.iter
    (fun r -> List.iter (fun c -> Bitset.add s (Fn_topology.Mesh.encode geo [| r; c |])) cols)
    rows;
  s

let test_rectangle_certificate () =
  (* 2x2 interior block of the 6x6 mesh *)
  let s = rect_set geo6 [ 2; 3 ] [ 2; 3 ] in
  check_bool "block compact" true (Compact.is_compact (Gview.Csr mesh6) s);
  match Mesh_span.certify mesh6 geo6 s with
  | None -> Alcotest.fail "expected certificate"
  | Some c ->
    check_bool "virtual connected" true c.Mesh_span.virtual_connected;
    check_int "boundary of 2x2 block" 8 (Bitset.cardinal c.Mesh_span.boundary);
    check_bool "edge bound" true (c.Mesh_span.tree_edges <= Mesh_span.spanning_tree_bound 8);
    check_bool "ratio <= 2" true (c.Mesh_span.ratio <= 2.0 +. 1e-9)

let test_edge_strip_certificate () =
  (* full-width strip: boundary is a straight line, ratio exactly 1 *)
  let s = rect_set geo6 [ 0; 1 ] [ 0; 1; 2; 3; 4; 5 ] in
  match Mesh_span.certify mesh6 geo6 s with
  | None -> Alcotest.fail "expected certificate"
  | Some c ->
    check_int "line boundary" 6 (Bitset.cardinal c.Mesh_span.boundary);
    check_float "straight line ratio 1" 1.0 c.Mesh_span.ratio

let test_non_compact_rejected () =
  let s = Bitset.of_list 36 [ 0; 35 ] in
  Alcotest.check_raises "not compact" (Invalid_argument "Mesh_span.certify: set is not compact")
    (fun () -> ignore (Mesh_span.certify mesh6 geo6 s))

let test_spanning_tree_bound_formula () =
  check_int "b=1" 0 (Mesh_span.spanning_tree_bound 1);
  check_int "b=10" 18 (Mesh_span.spanning_tree_bound 10)

let test_all_compact_sets_of_small_meshes () =
  (* exhaustive Lemma 3.7 check on every compact set of small meshes *)
  List.iter
    (fun dims ->
      let g, geo = Fn_topology.Mesh.graph dims in
      let sets = Compact.enumerate g in
      List.iter
        (fun s ->
          match Mesh_span.certify g geo s with
          | None -> ()
          | Some c ->
            if not c.Mesh_span.virtual_connected then
              Alcotest.failf "Lemma 3.7 violated on %s" (Format.asprintf "%a" Bitset.pp s);
            let b = Bitset.cardinal c.Mesh_span.boundary in
            if c.Mesh_span.tree_edges > Mesh_span.spanning_tree_bound b then
              Alcotest.fail "tree bound violated";
            if c.Mesh_span.ratio > 2.0 +. 1e-9 then Alcotest.fail "span witness above 2")
        sets)
    [ [| 4; 4 |]; [| 3; 5 |]; [| 2; 2; 2 |]; [| 2; 2; 4 |] ]

let test_3d_random_compact_sets () =
  let rng = Fn_prng.Rng.create 3 in
  let tried = ref 0 in
  for _ = 1 to 60 do
    match Compact.random_compact rng mesh3d ~target_size:(1 + Fn_prng.Rng.int rng 13) with
    | None -> ()
    | Some s -> (
      match Mesh_span.certify mesh3d geo3d s with
      | None -> ()
      | Some c ->
        incr tried;
        if (not c.Mesh_span.virtual_connected) || c.Mesh_span.ratio > 2.0 +. 1e-9 then
          Alcotest.fail "3-D mesh certificate violated")
  done;
  check_bool "certified some sets" true (!tried > 10)

let test_tree_nodes_form_connected_subgraph () =
  let s = rect_set geo6 [ 1; 2 ] [ 1; 2; 3 ] in
  match Mesh_span.certify mesh6 geo6 s with
  | None -> Alcotest.fail "expected certificate"
  | Some c ->
    check_bool "tree nodes connected in mesh" true
      (Dfs.is_connected_subset (Gview.Csr mesh6) c.Mesh_span.tree_nodes)

let () =
  Alcotest.run "mesh_span"
    [
      ( "certificates",
        [
          case "rectangle" test_rectangle_certificate;
          case "edge strip" test_edge_strip_certificate;
          case "non-compact rejected" test_non_compact_rejected;
          case "bound formula" test_spanning_tree_bound_formula;
          case "tree connected" test_tree_nodes_form_connected_subgraph;
        ] );
      ( "exhaustive",
        [
          case "all compact sets, small meshes" test_all_compact_sets_of_small_meshes;
          case "3-D random sets" test_3d_random_compact_sets;
        ] );
    ]
