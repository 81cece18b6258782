open Fn_graph
open Fn_prng

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let obs = cfg.Workload.obs in
  let domains = cfg.Workload.domains in
  let rng = Rng.create seed in
  let base_n = if quick then 32 else 64 in
  let ks = [ 2; 4; 8; 16 ] in
  let base = Workload.expander rng ~n:base_n ~d:4 in
  let table =
    Fn_stats.Table.create [ "k"; "nodes(H)"; "alpha(H)"; "alpha*k"; "prediction 2/k" ]
  in
  let points = ref [] in
  List.iter
    (fun k ->
      let cg = Fn_topology.Chain_graph.build base ~k in
      let h = cg.Fn_topology.Chain_graph.graph in
      let alpha = Workload.node_expansion_estimate ~obs ?domains rng h in
      points := (float_of_int k, alpha) :: !points;
      Fn_stats.Table.add_row table
        [
          string_of_int k;
          string_of_int (Graph.num_nodes h);
          Printf.sprintf "%.4f" alpha;
          Printf.sprintf "%.3f" (alpha *. float_of_int k);
          Printf.sprintf "%.4f" (Fn_topology.Chain_graph.expansion_prediction cg);
        ])
    ks;
  let fit = Fn_stats.Fit.log_log (List.rev !points) in
  let slope_ok = fit.Fn_stats.Fit.slope < -0.55 && fit.Fn_stats.Fit.slope > -1.35 in
  let window_ok =
    List.for_all (fun (k, a) -> a *. k >= 0.2 && a *. k <= 6.0) !points
  in
  {
    Outcome.id = "E2";
    title = "Claim 2.4: chain-replacement graph has expansion Theta(1/k)";
    table;
    checks =
      [
        (Printf.sprintf "log-log slope %.2f is within [-1.35, -0.55]" fit.Fn_stats.Fit.slope,
         slope_ok);
        ("alpha*k stays in a constant window [0.2, 6.0]", window_ok);
      ];
    notes = [ Printf.sprintf "base: random 4-regular expander on %d nodes" base_n ];
  }
