(* Large-n smoke: the implicit path must stay usable at n = 10^6
   between bench runs.  Builds a 1000x1000 implicit torus (no edges
   materialized), grows one BFS ball and answers one boundary query,
   all under a generous wall-clock budget — this is a rot detector,
   not a benchmark (bench/ pins the real numbers at n = 10^7). *)

open Fn_graph
open Fn_topology
open Testutil

let side = 1000
let budget_s = 10.0

let test_million_node_torus () =
  let t0 = Fn_obs.Clock.now_ns () in
  let view = Implicit.torus [| side; side |] in
  let n = Gview.num_nodes view in
  check_int "node count" (side * side) n;
  check_int "max degree is O(1) metadata" 4 (Gview.max_degree view);
  (* one BFS ball: radius 50 around the center, |B_r| = 2r^2+2r+1 on
     an unwrapped-locally flat torus *)
  let center = ((side / 2) * side) + (side / 2) in
  let ball = Bfs.ball view center 50 in
  check_int "ball cardinality" ((2 * 50 * 50) + (2 * 50) + 1) (Bitset.cardinal ball);
  (* one boundary query on that ball: the diamond's node boundary is
     the next BFS shell, 4(r+1) nodes; its edge boundary 4(2r+1) *)
  check_int "node boundary" (4 * 51) (Boundary.node_boundary_size view ball);
  check_int "edge boundary" (4 * 101) (Boundary.edge_boundary_size view ball);
  let elapsed = Fn_obs.Clock.elapsed_s ~since_ns:t0 in
  if elapsed > budget_s then
    Alcotest.failf "10^6-node smoke blew its %.0fs budget: %.2fs" budget_s elapsed

(* alpha? above Estimate.spectral_node_cap is the ball witness alone;
   its bits on the mask of the alpha_itorus1e6 bench kernel are pinned,
   since every state? digest of a 10^6-node daemon mixes them in *)
let test_alpha_above_cap () =
  let view = Implicit.torus [| side; side |] in
  let n = Gview.num_nodes view in
  let kept = Bitset.create_full n in
  Array.iter (Bitset.remove kept) (Fn_prng.Rng.sample (Fn_prng.Rng.create 42) n 1024);
  check_bool "above the cap" true (Bitset.cardinal kept > Fn_expansion.Estimate.spectral_node_cap);
  let alpha = Fn_online.Alpha_cache.reference ~seed:1 view ~kept in
  check_bool (Printf.sprintf "alpha %h" alpha) true
    (Int64.equal (Int64.bits_of_float alpha) (Int64.bits_of_float 0x1.6a4p-8))

(* Above the cap the estimator is the ball slice alone, with no
   components pass; the Prune finder makes that pass itself, so a node
   cut off by faulting its four neighbors is found even though no
   sampled ball source lands on it *)
let test_finder_above_cap () =
  let view = Implicit.torus [| side; side |] in
  let n = Gview.num_nodes view in
  let center = ((side / 2) * side) + (side / 2) in
  let alive = Bitset.create_full n in
  Gview.iter_neighbors view center (Bitset.remove alive);
  check_bool "above the cap" true (Bitset.cardinal alive > Fn_expansion.Estimate.spectral_node_cap);
  match Faultnet.Low_expansion.default Fn_expansion.Cut.Node ~alive view ~threshold:0.0 with
  | None -> Alcotest.fail "the isolated node was not found"
  | Some s -> check_bool "the isolated node" true (Bitset.equal s (Bitset.of_list n [ center ]))

let () =
  Alcotest.run "gview-scale"
    [
      ( "scale",
        [
          case "10^6-node implicit torus" test_million_node_torus;
          case "alpha above the spectral cap" test_alpha_above_cap;
          case "finder above the spectral cap" test_finder_above_cap;
        ] );
    ]
