open Fn_prng
open Fn_percolation

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let obs = cfg.Workload.obs in
  let rng = Rng.create seed in
  let runs = if quick then 8 else 32 in
  let n_complete = if quick then 128 else 256 in
  let side = if quick then 32 else 64 in
  let cube_dim = if quick then 8 else 10 in
  let d_sparse = 4 in
  let n_sparse = if quick then 512 else 2048 in
  let mesh, _ = Fn_topology.Mesh.cube ~d:2 ~side in
  let families =
    [
      ( "complete K_n",
        Fn_topology.Basic.complete n_complete,
        1.0 /. float_of_int (n_complete - 1),
        "1/(n-1)" );
      ( "G(n, dn/2 edges)",
        Fn_topology.Random_graphs.gnm rng n_sparse (d_sparse * n_sparse / 2),
        1.0 /. float_of_int d_sparse,
        "1/d" );
      ("2-D mesh", mesh, 0.5, "1/2 (Kesten)");
      ( "hypercube",
        Fn_topology.Hypercube.graph cube_dim,
        1.0 /. float_of_int cube_dim,
        "1/dim" );
    ]
  in
  let table =
    Fn_stats.Table.create [ "family"; "nodes"; "p measured"; "p theory"; "ratio"; "theory" ]
  in
  let all_ok = ref true in
  List.iter
    (fun (name, g, p_theory, formula) ->
      let r =
        Threshold.estimate ~obs ?domains:cfg.Workload.domains ~runs ~rng Threshold.Bond
          (Fn_graph.Gview.Csr g)
      in
      let ratio = r.Threshold.p_star /. p_theory in
      (* the gamma-level constant and finite size shift the crossing;
         a factor-2.5 window separates the families cleanly (their
         thresholds differ by orders of magnitude) *)
      let ok = ratio > 0.4 && ratio < 2.5 in
      if not ok then all_ok := false;
      Fn_stats.Table.add_row table
        [
          name;
          string_of_int (Fn_graph.Graph.num_nodes g);
          Printf.sprintf "%.4f" r.Threshold.p_star;
          Printf.sprintf "%.4f" p_theory;
          Printf.sprintf "%.2f" ratio;
          formula;
        ])
    families;
  {
    Outcome.id = "E8";
    title = "Section 1.1: classical bond-percolation thresholds (calibration)";
    table;
    checks = [ ("every measured threshold within [0.4, 2.5] x theory", !all_ok) ];
    notes =
      [
        Printf.sprintf "%d Newman-Ziff curves per family; crossing level gamma = 0.4" runs;
      ];
  }
