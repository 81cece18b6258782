open Fn_graph
open Fn_prng
open Fn_faults

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let obs = cfg.Workload.obs in
  let domains = cfg.Workload.domains in
  let rng = Rng.create seed in
  let configs = if quick then [ (2, 16) ] else [ (2, 16); (3, 7) ] in
  let table =
    Fn_stats.Table.create
      [ "d"; "n"; "p"; "p/p_thy"; "kept"; "n/2"; "exp(H)"; "eps*alpha_e"; "holds" ]
  in
  let theory_ok = ref true in
  let certs_ok = ref true in
  List.iter
    (fun (d, side) ->
      let g, _geo = Fn_topology.Torus.cube ~d ~side in
      let n = Graph.num_nodes g in
      let delta = Graph.max_degree g in
      let sigma = Faultnet.Theorem.thm36_mesh_span in
      let p_thy = Faultnet.Theorem.thm34_max_fault_probability ~delta ~sigma in
      let epsilon = Faultnet.Theorem.thm34_max_epsilon ~delta in
      let alpha_e = Workload.edge_expansion_estimate ~obs ?domains rng g in
      let ps = [ p_thy; 0.01; 0.05; 0.10; 0.20 ] in
      List.iter
        (fun p ->
          let cert_ok, kept, target, exp_measured, exp_target, holds =
            let faults = Random_faults.nodes_iid rng g p in
            let res =
              Faultnet.Prune2.run ~obs ~rng ?domains g ~alive:faults.Fault_set.alive ~alpha_e
                ~epsilon
            in
            let cert_ok =
              Faultnet.Prune2.verify_certificates g ~alive:faults.Fault_set.alive res
            in
            let kept = Bitset.cardinal res.Faultnet.Prune2.kept in
            let target = Faultnet.Theorem.thm34_guaranteed_size ~n in
            let exp_target = epsilon *. alpha_e in
            let exp_measured =
              if kept >= 2 then
                Workload.edge_expansion_estimate ~obs ?domains rng
                  ~alive:res.Faultnet.Prune2.kept g
              else 0.0
            in
            let holds =
              float_of_int kept >= target && exp_measured >= exp_target -. 1e-9
            in
            (cert_ok, kept, target, exp_measured, exp_target, holds)
          in
          if not cert_ok then certs_ok := false;
          if p <= p_thy +. 1e-12 && not holds then theory_ok := false;
          Fn_stats.Table.add_row table
            [
              string_of_int d;
              string_of_int n;
              Printf.sprintf "%.2e" p;
              Printf.sprintf "%.1f" (p /. p_thy);
              string_of_int kept;
              Printf.sprintf "%.0f" target;
              Printf.sprintf "%.4f" exp_measured;
              Printf.sprintf "%.4f" exp_target;
              Workload.bool_cell holds;
            ])
        ps)
    configs;
  {
    Outcome.id = "E6";
    title = "Theorem 3.4: Prune2 keeps n/2 nodes with edge expansion eps*alpha_e";
    table;
    checks =
      [
        ("guarantee holds at the theoretical fault probability", !theory_ok);
        ("all Prune2 certificates re-verify", !certs_ok);
      ];
    notes =
      [
        "p_thy = 1/(2e*delta^(4*sigma)) with sigma = 2 (Theorem 3.6); rows with p >> p_thy \
         probe how conservative the bound is";
      ];
  }
