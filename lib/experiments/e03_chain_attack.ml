open Fn_graph
open Fn_prng
open Fn_faults

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let rng = Rng.create seed in
  let base_n = if quick then 32 else 64 in
  let d = 4 in
  let k = 8 in
  let base = Workload.expander rng ~n:base_n ~d in
  let cg = Fn_topology.Chain_graph.build base ~k in
  let h = cg.Fn_topology.Chain_graph.graph in
  let n = Graph.num_nodes h in
  let centers = Fn_topology.Chain_graph.chain_centers cg in
  let m = Array.length centers in
  let fractions = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let table =
    Fn_stats.Table.create
      [ "budget f"; "f/n"; "gamma chain-attack"; "gamma random"; "largest comp" ]
  in
  let final_gamma = ref 1.0 in
  List.iter
    (fun frac ->
      let budget = int_of_float (Float.round (frac *. float_of_int m)) in
      let gamma_attack, gamma_random, largest =
        let attack = Adversary.targets h ~targets:centers ~budget in
        let gamma_attack = Workload.gamma_of_alive h attack.Fault_set.alive in
        let random = Adversary.random rng h ~budget in
        let gamma_random = Workload.gamma_of_alive h random.Fault_set.alive in
        let comps = Components.compute ~alive:attack.Fault_set.alive (Gview.Csr h) in
        (gamma_attack, gamma_random, Components.largest_size comps)
      in
      if frac = 1.0 then final_gamma := gamma_attack;
      Fn_stats.Table.add_row table
        [
          string_of_int budget;
          Printf.sprintf "%.4f" (float_of_int budget /. float_of_int n);
          Printf.sprintf "%.4f" gamma_attack;
          Printf.sprintf "%.4f" gamma_random;
          string_of_int largest;
        ])
    fractions;
  let bound = Faultnet.Theorem.thm23_component_bound ~delta:d ~k in
  let largest, shattered, random_resilient =
    let full_attack = Adversary.targets h ~targets:centers ~budget:m in
    let comps = Components.compute ~alive:full_attack.Fault_set.alive (Gview.Csr h) in
    let largest = Components.largest_size comps in
    let random = Adversary.random rng h ~budget:m in
    let random_resilient =
      Workload.gamma_of_alive h random.Fault_set.alive > 2.0 *. !final_gamma
    in
    (largest, largest <= bound, random_resilient)
  in
  {
    Outcome.id = "E3";
    title = "Theorem 2.3: chain-center attack shatters H(G,k) with ~alpha*n faults";
    table;
    checks =
      [
        (Printf.sprintf "full attack leaves components <= delta*k/2+1 = %d (got %d)" bound
           largest,
         shattered);
        ("random faults with the same budget leave a much larger component", random_resilient);
      ];
    notes =
      [
        Printf.sprintf "H(G,%d) on %d nodes, %d chain centers; f/n = %.4f ~ alpha" k n m
          (float_of_int m /. float_of_int n);
      ];
  }
