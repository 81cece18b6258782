(* Quickstart: build a torus, knock out 8% of its nodes at random, and
   use Prune2 to extract a large well-expanding survivor.

   Run with:  dune exec examples/quickstart.exe *)

open Fn_graph

let () =
  let rng = Fn_prng.Rng.create 2024 in

  (* 1. Build a 16x16 torus: 256 nodes, degree 4 everywhere. *)
  let g, _geometry = Fn_topology.Torus.cube ~d:2 ~side:16 in
  Printf.printf "network: %d nodes, %d edges, degree %d\n" (Graph.num_nodes g)
    (Graph.num_edges g) (Graph.max_degree g);

  (* 2. Measure its edge expansion (heuristic upper bound + spectral
        lower bound). *)
  let baseline = Fn_expansion.Estimate.run ~rng g Fn_expansion.Cut.Edge in
  Printf.printf "fault-free edge expansion: %.4f\n" baseline.Fn_expansion.Estimate.value;

  (* 3. Fail each node independently with probability 0.08. *)
  let faults = Fn_faults.Random_faults.nodes_iid rng g 0.08 in
  let alive = faults.Fn_faults.Fault_set.alive in
  Printf.printf "faults injected: %d nodes down\n" (Fn_faults.Fault_set.count faults);
  let gamma_before =
    let comps = Components.compute ~alive (Gview.Csr g) in
    float_of_int (Components.largest_size comps) /. float_of_int (Graph.num_nodes g)
  in
  Printf.printf "largest surviving component: %.1f%% of the network\n" (100.0 *. gamma_before);

  (* 4. Prune away the poorly-expanding fringes (Algorithm Prune2 of
        the paper, with epsilon = 1/(2*degree)). *)
  let epsilon = Faultnet.Theorem.thm34_max_epsilon ~delta:(Graph.max_degree g) in
  let result =
    Faultnet.Prune2.run ~rng g ~alive ~alpha_e:baseline.Fn_expansion.Estimate.value ~epsilon
  in
  print_endline (Faultnet.Report.prune2_summary g result);

  (* 5. The certificates are checkable: every culled region really had
        a low-expansion boundary at the moment it was removed. *)
  let ok = Faultnet.Prune2.verify_certificates g ~alive result in
  Printf.printf "certificates independently re-verified: %b\n" ok
