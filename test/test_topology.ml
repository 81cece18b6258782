open Fn_graph
open Testutil

let rng () = Fn_prng.Rng.create 777

(* ---- mesh ---- *)

let test_mesh_counts () =
  let g, geo = Fn_topology.Mesh.graph [| 3; 4 |] in
  check_int "nodes" 12 (Graph.num_nodes g);
  (* edges: 3*(4-1) horizontal + 4*(3-1) vertical = 9 + 8 *)
  check_int "edges" 17 (Graph.num_edges g);
  check_int "size" 12 geo.Fn_topology.Mesh.size;
  Check.csr_exn g

let test_mesh_encode_decode () =
  let geo = Fn_topology.Mesh.geometry [| 3; 4; 5 |] in
  for id = 0 to geo.Fn_topology.Mesh.size - 1 do
    let c = Fn_topology.Mesh.decode geo id in
    if Fn_topology.Mesh.encode geo c <> id then Alcotest.failf "roundtrip failed at %d" id
  done;
  Alcotest.check_raises "bad coord" (Invalid_argument "Mesh.encode: coordinate out of range")
    (fun () -> ignore (Fn_topology.Mesh.encode geo [| 0; 0; 5 |]))

let test_mesh_adjacency_is_unit_step () =
  let g, geo = Fn_topology.Mesh.cube ~d:3 ~side:3 in
  Graph.iter_edges g (fun u v ->
      let cu = Fn_topology.Mesh.decode geo u and cv = Fn_topology.Mesh.decode geo v in
      let diff = ref 0 in
      Array.iteri (fun i c -> diff := !diff + abs (c - cv.(i))) cu;
      if !diff <> 1 then Alcotest.failf "edge %d-%d is not a unit step" u v)

let test_mesh_degenerate () =
  let g, _ = Fn_topology.Mesh.graph [| 1 |] in
  check_int "single node" 1 (Graph.num_nodes g);
  check_int "no edges" 0 (Graph.num_edges g);
  let g, _ = Fn_topology.Mesh.graph [| 1; 5 |] in
  check_int "degenerate dim ok" 5 (Graph.num_nodes g);
  check_int "line edges" 4 (Graph.num_edges g)

let test_virtual_neighbors () =
  let geo = Fn_topology.Mesh.geometry [| 4; 4 |] in
  (* interior node: 4 axis + 4 diagonal = 8 king moves *)
  let v = Fn_topology.Mesh.encode geo [| 1; 1 |] in
  check_int "interior king moves" 8 (List.length (Fn_topology.Mesh.virtual_neighbors geo v));
  (* corner: 2 axis + 1 diagonal *)
  let c = Fn_topology.Mesh.encode geo [| 0; 0 |] in
  check_int "corner king moves" 3 (List.length (Fn_topology.Mesh.virtual_neighbors geo c));
  (* symmetry of the relation *)
  List.iter
    (fun w ->
      check_bool "virtual edge symmetric" true
        (List.mem v (Fn_topology.Mesh.virtual_neighbors geo w)))
    (Fn_topology.Mesh.virtual_neighbors geo v);
  check_bool "not self" false (List.mem v (Fn_topology.Mesh.virtual_neighbors geo v))

(* ---- torus ---- *)

let test_torus_regular () =
  let g, _ = Fn_topology.Torus.cube ~d:2 ~side:5 in
  check_bool "4-regular" true (Check.regular g 4);
  check_int "edges" (2 * 25) (Graph.num_edges g);
  Check.csr_exn g

let test_torus_small_sides () =
  let g, _ = Fn_topology.Torus.graph [| 2; 3 |] in
  (* side 2 merges the wrap edge with the mesh edge *)
  check_int "nodes" 6 (Graph.num_nodes g);
  Check.csr_exn g;
  let g1, _ = Fn_topology.Torus.graph [| 1 |] in
  check_int "single" 1 (Graph.num_nodes g1)

(* ---- hypercube ---- *)

let test_hypercube () =
  let g = Fn_topology.Hypercube.graph 4 in
  check_int "nodes" 16 (Graph.num_nodes g);
  check_bool "4-regular" true (Check.regular g 4);
  check_bool "connected" true (Components.is_connected (Gview.Csr g));
  let g0 = Fn_topology.Hypercube.graph 0 in
  check_int "dim 0" 1 (Graph.num_nodes g0)

(* ---- butterfly / de Bruijn / shuffle-exchange ---- *)

let test_butterfly () =
  let g = Fn_topology.Butterfly.unwrapped 3 in
  check_int "nodes" 32 (Graph.num_nodes g);
  check_int "edges" (2 * 3 * 8) (Graph.num_edges g);
  check_bool "connected" true (Components.is_connected (Gview.Csr g));
  check_int "max degree" 4 (Graph.max_degree g)

let test_debruijn () =
  let g = Fn_topology.Debruijn.graph 5 in
  check_int "nodes" 32 (Graph.num_nodes g);
  check_bool "connected" true (Components.is_connected (Gview.Csr g));
  check_bool "degree <= 4" true (Graph.max_degree g <= 4)

let test_shuffle_exchange () =
  let g = Fn_topology.Shuffle_exchange.graph 5 in
  check_int "nodes" 32 (Graph.num_nodes g);
  check_bool "connected" true (Components.is_connected (Gview.Csr g));
  check_bool "degree <= 3" true (Graph.max_degree g <= 3)

(* ---- basic families ---- *)

let test_basic_families () =
  check_int "K5 edges" 10 (Graph.num_edges (Fn_topology.Basic.complete 5));
  check_int "C7 edges" 7 (Graph.num_edges (Fn_topology.Basic.cycle 7));
  check_int "P7 edges" 6 (Graph.num_edges (Fn_topology.Basic.path 7));
  check_int "star edges" 6 (Graph.num_edges (Fn_topology.Basic.star 7));
  check_int "star hub degree" 6 (Graph.degree (Fn_topology.Basic.star 7) 0);
  check_int "K23 edges" 6 (Graph.num_edges (Fn_topology.Basic.complete_bipartite 2 3));
  let bb = Fn_topology.Basic.barbell 4 in
  check_int "barbell nodes" 8 (Graph.num_nodes bb);
  check_int "barbell edges" 13 (Graph.num_edges bb);
  check_bool "barbell connected" true (Components.is_connected (Gview.Csr bb));
  let bt = Fn_topology.Basic.binary_tree 7 in
  check_int "tree edges" 6 (Graph.num_edges bt);
  check_int "root degree" 2 (Graph.degree bt 0)

(* ---- random graphs ---- *)

let test_gnm () =
  let r = rng () in
  let g = Fn_topology.Random_graphs.gnm r 50 100 in
  check_int "exact edges" 100 (Graph.num_edges g);
  Check.csr_exn g;
  Alcotest.check_raises "too many" (Invalid_argument "Random_graphs.gnm: m out of range")
    (fun () -> ignore (Fn_topology.Random_graphs.gnm r 4 7))

let test_random_regular () =
  let r = rng () in
  List.iter
    (fun (n, d) ->
      let g = Fn_topology.Random_graphs.random_regular r n d in
      check_bool (Printf.sprintf "%d-regular on %d" d n) true (Check.regular g d);
      Check.csr_exn g)
    [ (10, 3); (64, 4); (128, 6); (50, 8) ];
  Alcotest.check_raises "odd product"
    (Invalid_argument "Random_graphs.random_regular: n*d must be even") (fun () ->
      ignore (Fn_topology.Random_graphs.random_regular r 5 3))

let test_connected_random_regular () =
  let r = rng () in
  let g = Fn_topology.Random_graphs.connected_random_regular r 100 3 in
  check_bool "connected" true (Components.is_connected (Gview.Csr g));
  check_bool "3-regular" true (Check.regular g 3)

(* ---- expanders ---- *)

let test_margulis () =
  let g = Fn_topology.Expander.margulis 8 in
  check_int "nodes" 64 (Graph.num_nodes g);
  check_bool "degree <= 8" true (Graph.max_degree g <= 8);
  check_bool "connected" true (Components.is_connected (Gview.Csr g));
  Check.csr_exn g

(* ---- chain graph ---- *)

let test_chain_graph_structure () =
  let base = Fn_topology.Basic.cycle 4 in
  let cg = Fn_topology.Chain_graph.build base ~k:4 in
  let h = cg.Fn_topology.Chain_graph.graph in
  (* 4 original + 4 edges * 4 chain nodes *)
  check_int "nodes" 20 (Graph.num_nodes h);
  (* each chain contributes k+1 = 5 edges *)
  check_int "edges" 20 (Graph.num_edges h);
  check_bool "connected" true (Components.is_connected (Gview.Csr h));
  let centers = Fn_topology.Chain_graph.chain_centers cg in
  check_int "one center per edge" 4 (Array.length centers);
  check_int "distinct centers" 4
    (List.length (List.sort_uniq Int.compare (Array.to_list centers)));
  Array.iter (fun c -> check_int "center degree" 2 (Graph.degree h c)) centers;
  (* chain j occupies nodes n_base + j·k .. n_base + j·k + k − 1 *)
  for i = 0 to 2 do
    check_bool "chain consecutive" true (Graph.has_edge h (4 + i) (4 + i + 1))
  done;
  check_float "prediction" 0.5 (Fn_topology.Chain_graph.expansion_prediction cg)

let test_chain_graph_rejects_odd_k () =
  Alcotest.check_raises "odd k" (Invalid_argument "Chain_graph.build: k must be even and >= 2")
    (fun () -> ignore (Fn_topology.Chain_graph.build (Fn_topology.Basic.cycle 3) ~k:3))

let test_claim24_witness () =
  (* the proof object of Claim 2.4: for any base set U the witness U'
     has node expansion at most 2/k (up to the +|U| slack in |U'|) *)
  let r = rng () in
  let base = Fn_topology.Random_graphs.connected_random_regular r 16 4 in
  let cg = Fn_topology.Chain_graph.build base ~k:8 in
  let h = cg.Fn_topology.Chain_graph.graph in
  List.iter
    (fun base_list ->
      let base_set = Bitset.of_list 16 base_list in
      let w = Fn_topology.Chain_graph.claim24_witness cg ~base_set in
      let expansion = Boundary.node_expansion (Gview.Csr h) w in
      let bound = Fn_topology.Chain_graph.expansion_prediction cg in
      if expansion > bound +. 1e-9 then
        Alcotest.failf "witness expansion %.4f above 2/k = %.4f" expansion bound;
      (* the boundary is exactly one chain node per leaving base edge *)
      let leaving =
        Array.fold_left
          (fun acc (u, v) ->
            let inu = List.mem u base_list and inv = List.mem v base_list in
            if inu <> inv then acc + 1 else acc)
          0 (Graph.edges base)
      in
      check_int "boundary = leaving base edges" leaving (Boundary.node_boundary_size (Gview.Csr h) w))
    [ [ 0 ]; [ 0; 1; 2 ]; List.init 8 Fun.id ]

let test_chain_attack_shatters () =
  let base = Fn_topology.Basic.complete 5 in
  let cg = Fn_topology.Chain_graph.build base ~k:2 in
  let h = cg.Fn_topology.Chain_graph.graph in
  let centers = Fn_topology.Chain_graph.chain_centers cg in
  let faulty = Bitset.of_array (Graph.num_nodes h) centers in
  let alive = Bitset.complement faulty in
  let comps = Components.compute ~alive (Gview.Csr h) in
  (* every surviving component is a base node with half-chains:
     size <= delta*k/2 + 1 = 5 *)
  check_bool "all components small" true
    (Array.for_all (fun s -> s <= 5) comps.Components.sizes)

let test_butterfly_node_numbering () =
  check_int "level 2, row 5 of k=3" 21 (Fn_topology.Butterfly.node ~k:3 ~level:2 ~row:5);
  let g = Fn_topology.Butterfly.unwrapped 3 in
  (* a straight edge joins row r of levels l and l+1 *)
  check_bool "straight edge" true
    (Graph.has_edge g (Fn_topology.Butterfly.node ~k:3 ~level:0 ~row:5)
       (Fn_topology.Butterfly.node ~k:3 ~level:1 ~row:5))

(* the usage texts list one example per family: each must build *)
let test_spec_families_build () =
  let examples = String.split_on_char ' ' Fn_topology.Spec.families in
  check_bool "several families" true (List.length examples >= 5);
  List.iter
    (fun spec ->
      match Fn_topology.Spec.view (rng ()) spec with
      | Ok v -> check_bool (spec ^ ": nonempty") true (Gview.num_nodes v > 0)
      | Error m -> Alcotest.failf "%s: %s" spec m)
    examples;
  check_bool "unknown family refused" true
    (Result.is_error (Fn_topology.Spec.view (rng ()) "moebius:3"))

let () =
  Alcotest.run "topology"
    [
      ( "mesh",
        [
          case "counts" test_mesh_counts;
          case "encode/decode" test_mesh_encode_decode;
          case "unit-step adjacency" test_mesh_adjacency_is_unit_step;
          case "degenerate dims" test_mesh_degenerate;
          case "virtual neighbors" test_virtual_neighbors;
        ] );
      ( "torus",
        [ case "regular" test_torus_regular; case "small sides" test_torus_small_sides ] );
      ("hypercube", [ case "structure" test_hypercube ]);
      ( "indirect",
        [
          case "butterfly" test_butterfly;
          case "debruijn" test_debruijn;
          case "shuffle-exchange" test_shuffle_exchange;
        ] );
      ("basic", [ case "families" test_basic_families ]);
      ( "random",
        [
          case "gnm" test_gnm;
          case "random regular" test_random_regular;
          case "connected regular" test_connected_random_regular;
        ] );
      ("expander", [ case "margulis" test_margulis ]);
      ( "chain graph",
        [
          case "structure" test_chain_graph_structure;
          case "odd k rejected" test_chain_graph_rejects_odd_k;
          case "claim 2.4 witness" test_claim24_witness;
          case "center attack shatters" test_chain_attack_shatters;
          case "butterfly node numbering" test_butterfly_node_numbering;
          case "spec families build" test_spec_families_build;
        ] );
    ]
