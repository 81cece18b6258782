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

let () =
  Alcotest.run "gview-scale"
    [ ("scale", [ case "10^6-node implicit torus" test_million_node_torus ]) ]
