open Fn_prng
open Fn_faults

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let rng = Rng.create seed in
  let base_n = if quick then 32 else 64 in
  let d = 4 in
  let k = 32 in
  let trials = if quick then 5 else 10 in
  let base = Workload.expander rng ~n:base_n ~d in
  let h = (Fn_topology.Chain_graph.build base ~k).Fn_topology.Chain_graph.graph in
  let p_star = Faultnet.Theorem.thm31_fault_probability ~delta:d ~k in
  let multiples = [ 0.05; 0.1; 0.25; 0.5; 1.0 ] in
  let table =
    Fn_stats.Table.create [ "p/p*"; "p"; "gamma chain (mean)"; "gamma expander (mean)" ]
  in
  let low_p_gamma = ref 0.0 in
  let collapse = ref 1.0 in
  let control = ref 0.0 in
  List.iter
    (fun mult ->
      let p = min 1.0 (mult *. p_star) in
      let mc, mb =
        let gammas_chain =
          List.init trials (fun _ ->
              let f = Random_faults.nodes_iid rng h p in
              Workload.gamma_of_alive h f.Fault_set.alive)
        in
        let gammas_base =
          List.init trials (fun _ ->
              let f = Random_faults.nodes_iid rng base p in
              Workload.gamma_of_alive base f.Fault_set.alive)
        in
        (Workload.mean_of gammas_chain, Workload.mean_of gammas_base)
      in
      if mult = 0.05 then low_p_gamma := mc;
      if mult = 0.5 then collapse := mc;
      if mult = 1.0 then control := mb;
      Fn_stats.Table.add_row table
        [
          Printf.sprintf "%.2f" mult;
          Printf.sprintf "%.4f" p;
          Printf.sprintf "%.4f" mc;
          Printf.sprintf "%.4f" mb;
        ])
    multiples;
  {
    Outcome.id = "E5";
    title = "Theorem 3.1: p = Theta(alpha) random faults disintegrate the chain graph";
    table;
    checks =
      [
        (Printf.sprintf "chain graph survives far below p* (gamma = %.3f > 0.4 at p*/20)"
           !low_p_gamma,
         !low_p_gamma > 0.4);
        (Printf.sprintf "chain graph collapses by p*/2 (gamma = %.3f < 0.2)" !collapse,
         !collapse < 0.2);
        (Printf.sprintf "base expander survives the full p* (gamma = %.3f > 0.6)" !control,
         !control > 0.6);
      ];
    notes =
      [
        Printf.sprintf
          "p* = 4 ln(delta)/k = %.4f; chain expansion ~ 2/k = %.4f — the same order, so \
           Theta(alpha) random faults suffice, matching Theorem 3.1"
          p_star (2.0 /. float_of_int k);
      ];
  }
