open Fn_graph
open Faultnet
open Testutil

let rng () = Fn_prng.Rng.create 909

let test_noop_on_clean_torus () =
  let g, _ = Fn_topology.Torus.cube ~d:2 ~side:8 in
  let alive = Bitset.create_full 64 in
  (* true alpha_e = 8/32 = 0.25; eps 0.125 -> threshold 0.03, nothing
     in the clean torus is that bad *)
  let res = Prune2.run ~rng:(rng ()) g ~alive ~alpha_e:0.25 ~epsilon:0.125 in
  check_int "nothing culled" 0 (Prune2.total_culled res);
  check_bool "certificates" true (Prune2.verify_certificates g ~alive res)

let test_culls_isolated_fragment () =
  let g, _ = Fn_topology.Torus.cube ~d:2 ~side:8 in
  (* kill a ring around a 2x2 block: the block is isolated with zero
     edge boundary *)
  let block = [ 9; 10; 17; 18 ] in
  let ring = [ 0; 1; 2; 3; 8; 11; 16; 19; 24; 25; 26; 27 ] in
  let faults = Fn_faults.Fault_set.of_faulty_list 64 ring in
  let alive = faults.Fn_faults.Fault_set.alive in
  let res = Prune2.run ~rng:(rng ()) g ~alive ~alpha_e:0.25 ~epsilon:0.125 in
  List.iter
    (fun v ->
      check_bool (Printf.sprintf "block node %d culled" v) false
        (Bitset.mem res.Prune2.kept v))
    block;
  check_bool "certificates" true (Prune2.verify_certificates g ~alive res)

let test_culled_sets_connected_and_compact_shape () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:8 in
  let faults = Fn_faults.Random_faults.nodes_iid (rng ()) g 0.2 in
  let alive = faults.Fn_faults.Fault_set.alive in
  if Bitset.cardinal alive >= 2 then begin
    let res = Prune2.run ~rng:(rng ()) g ~alive ~alpha_e:0.125 ~epsilon:0.25 in
    List.iter
      (fun c ->
        check_bool "found set connected" true (Dfs.is_connected_subset (Gview.Csr g) c.Prune2.found);
        check_bool "compacted contains or is disjoint from found" true
          (Bitset.subset c.Prune2.found c.Prune2.compacted
          || Bitset.disjoint c.Prune2.found c.Prune2.compacted))
      res.Prune2.culled;
    check_bool "certificates" true (Prune2.verify_certificates g ~alive res)
  end

let test_parameter_validation () =
  let g = Fn_topology.Basic.path 4 in
  let alive = Bitset.create_full 4 in
  Alcotest.check_raises "alpha_e" (Invalid_argument "Prune2.run: alpha_e must be positive")
    (fun () -> ignore (Prune2.run g ~alive ~alpha_e:(-1.0) ~epsilon:0.5));
  Alcotest.check_raises "epsilon" (Invalid_argument "Prune2.run: need 0 < epsilon < 1")
    (fun () -> ignore (Prune2.run g ~alive ~alpha_e:1.0 ~epsilon:0.0));
  Alcotest.check_raises "nan alpha_e" (Invalid_argument "Prune2.run: alpha_e must be positive")
    (fun () -> ignore (Prune2.run g ~alive ~alpha_e:Float.nan ~epsilon:0.5));
  Alcotest.check_raises "nan epsilon" (Invalid_argument "Prune2.run: need 0 < epsilon < 1")
    (fun () -> ignore (Prune2.run g ~alive ~alpha_e:1.0 ~epsilon:Float.nan))

let test_partition_accounting () =
  let g, _ = Fn_topology.Torus.cube ~d:2 ~side:6 in
  let faults = Fn_faults.Random_faults.nodes_iid (rng ()) g 0.25 in
  let alive = faults.Fn_faults.Fault_set.alive in
  if Bitset.cardinal alive >= 2 then begin
    let res = Prune2.run ~rng:(rng ()) g ~alive ~alpha_e:0.3 ~epsilon:0.4 in
    check_int "kept + culled = alive"
      (Bitset.cardinal alive)
      (Bitset.cardinal res.Prune2.kept + Prune2.total_culled res)
  end

let test_theorem34_regime () =
  (* at the theorem's fault probability essentially nothing fails, so
     the guarantee holds trivially — this is the E6 sanity row *)
  let g, _ = Fn_topology.Torus.cube ~d:2 ~side:8 in
  let n = Graph.num_nodes g in
  let delta = Graph.max_degree g in
  let p = Theorem.thm34_max_fault_probability ~delta ~sigma:2.0 in
  let eps = Theorem.thm34_max_epsilon ~delta in
  let faults = Fn_faults.Random_faults.nodes_iid (rng ()) g p in
  let alive = faults.Fn_faults.Fault_set.alive in
  let res = Prune2.run ~rng:(rng ()) g ~alive ~alpha_e:0.25 ~epsilon:eps in
  check_bool "kept >= n/2" true
    (float_of_int (Bitset.cardinal res.Prune2.kept) >= Theorem.thm34_guaranteed_size ~n)

let prop_certificates_on_random_graphs =
  prop "prune2 certificates verify on random graphs + faults" ~count:40
    (Testutil.gen_connected_graph ~max_n:14 ())
    (fun g ->
      let r = Fn_prng.Rng.create 23 in
      let faults = Fn_faults.Random_faults.nodes_iid r g 0.2 in
      let alive = faults.Fn_faults.Fault_set.alive in
      if Bitset.cardinal alive < 2 then true
      else begin
        let res = Prune2.run ~rng:r g ~alive ~alpha_e:0.5 ~epsilon:0.5 in
        Prune2.verify_certificates g ~alive res
      end)

(* Round edge boundaries come from the reused Boundary.Scratch; a
   naive replay with the allocating edge_boundary_size must agree. *)
let prop_round_edge_boundaries_match_naive_replay =
  prop "recorded round edge boundaries equal a naive replay" ~count:40
    (Testutil.gen_connected_graph ~max_n:14 ())
    (fun g ->
      let r = Fn_prng.Rng.create 31 in
      let faults = Fn_faults.Random_faults.nodes_iid r g 0.25 in
      let alive = faults.Fn_faults.Fault_set.alive in
      if Bitset.cardinal alive < 2 then true
      else begin
        let res = Prune2.run ~rng:r g ~alive ~alpha_e:0.5 ~epsilon:0.5 in
        let current = Bitset.copy alive in
        List.for_all
          (fun c ->
            let expected = Boundary.edge_boundary_size ~alive:current (Gview.Csr g) c.Prune2.compacted in
            let ok = expected = c.Prune2.edge_boundary in
            Bitset.diff_into current c.Prune2.compacted;
            ok)
          res.Prune2.culled
      end)

let () =
  Alcotest.run "prune2"
    [
      ( "behaviour",
        [
          case "noop on clean torus" test_noop_on_clean_torus;
          case "culls isolated fragment" test_culls_isolated_fragment;
          case "culled sets shape" test_culled_sets_connected_and_compact_shape;
          case "parameter validation" test_parameter_validation;
          case "partition accounting" test_partition_accounting;
          case "theorem 3.4 regime" test_theorem34_regime;
        ] );
      ( "properties",
        [ prop_certificates_on_random_graphs; prop_round_edge_boundaries_match_naive_replay ] );
    ]
