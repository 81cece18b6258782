open Fn_graph
open Fn_prng
open Fn_faults

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let obs = cfg.Workload.obs in
  let domains = cfg.Workload.domains in
  let rng = Rng.create seed in
  let n = if quick then 128 else 256 in
  let dims = if quick then [ 2 ] else [ 2; 3; 4 ] in
  let p = 0.05 in
  let table =
    Fn_stats.Table.create
      [
        "d"; "overlay"; "nodes"; "max deg"; "alpha_e"; "p"; "kept"; "exp(H)"; "exp ratio"; "p_thy";
      ]
  in
  let all_kept = ref true in
  let ratio_ok = ref true in
  let eval name g d =
    let nn = Graph.num_nodes g in
    let delta = Graph.max_degree g in
    let alpha_e, kept, exp_h, ratio =
      let alpha_e = Workload.edge_expansion_estimate ~obs ?domains rng g in
      let epsilon = min (Faultnet.Theorem.thm34_max_epsilon ~delta) 0.45 in
      let faults = Random_faults.nodes_iid rng g p in
      let kept_mask =
        (Faultnet.Prune2.run ~obs ~rng ?domains g ~alive:faults.Fault_set.alive ~alpha_e
           ~epsilon)
          .Faultnet.Prune2.kept
      in
      let kept = Bitset.cardinal kept_mask in
      let exp_h =
        if kept >= 2 then
          Workload.edge_expansion_estimate ~obs ?domains rng ~alive:kept_mask g
        else 0.0
      in
      (alpha_e, kept, exp_h, exp_h /. alpha_e)
    in
    if 2 * kept < nn then all_kept := false;
    if ratio < 0.3 then ratio_ok := false;
    Fn_stats.Table.add_row table
      [
        string_of_int d;
        name;
        string_of_int nn;
        string_of_int delta;
        Printf.sprintf "%.4f" alpha_e;
        Printf.sprintf "%.2f" p;
        string_of_int kept;
        Printf.sprintf "%.4f" exp_h;
        Printf.sprintf "%.2f" ratio;
        Printf.sprintf "%.1e" (Faultnet.Theorem.mesh_fault_budget ~d);
      ]
  in
  List.iter
    (fun d ->
      let can = Fn_topology.Can.build rng ~d ~n in
      eval "CAN" (Fn_topology.Can.graph can) d;
      let side = int_of_float (Float.round (Float.pow (float_of_int n) (1.0 /. float_of_int d))) in
      let torus, _ = Fn_topology.Torus.cube ~d ~side:(max 3 side) in
      eval "torus" torus d)
    dims;
  let checks =
    [
      ("every survivor keeps >= half the overlay", !all_kept);
      ("survivor edge expansion stays >= 0.3 x fault-free expansion", !ratio_ok);
    ]
  in
  let notes =
    [
      "p = 0.05 is orders of magnitude above the worst-case Theorem 3.4 budget (p_thy \
       column); the theorem is conservative, the phenomenon is robust";
    ]
  in
  {
    Outcome.id = "E9";
    title = "Conclusion: CAN overlays keep size and expansion under churn (like meshes)";
    table;
    checks;
    notes;
  }
