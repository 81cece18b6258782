open Fn_graph
open Fn_prng
open Fn_faults

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let obs = cfg.Workload.obs in
  let domains = cfg.Workload.domains in
  let rng = Rng.create seed in
  let side = if quick then 12 else 16 in
  let snapshots = if quick then 6 else 10 in
  let g, _ = Fn_topology.Torus.cube ~d:2 ~side in
  let n = Graph.num_nodes g in
  let rate_fail = 0.1 and rate_repair = 0.9 in
  let stationary = Churn.stationary_dead_fraction ~rate_fail ~rate_repair in
  let alpha_e = Workload.edge_expansion_estimate ~obs ?domains rng g in
  let epsilon = Faultnet.Theorem.thm34_max_epsilon ~delta:(Graph.max_degree g) in
  let table =
    Fn_stats.Table.create [ "time"; "dead"; "gamma"; "kept"; "survivor exp"; "exp ratio" ]
  in
  let min_kept = ref n and min_ratio = ref infinity in
  let snaps = Churn.simulate rng g ~rate_fail ~rate_repair ~horizon:20.0 ~snapshots in
  List.iter
    (fun snap ->
      let alive = snap.Churn.faults.Fault_set.alive in
      if Bitset.cardinal alive >= 2 then begin
        let gamma, kept, exp_h, ratio =
          let gamma = Workload.gamma_of_alive g alive in
          let kept_mask =
            (Faultnet.Prune2.run ~obs ~rng ?domains g ~alive ~alpha_e ~epsilon)
              .Faultnet.Prune2.kept
          in
          let kept = Bitset.cardinal kept_mask in
          let exp_h =
            if kept >= 2 then
              Workload.edge_expansion_estimate ~obs ?domains rng ~alive:kept_mask g
            else 0.0
          in
          (gamma, kept, exp_h, exp_h /. alpha_e)
        in
        if kept < !min_kept then min_kept := kept;
        if ratio < !min_ratio then min_ratio := ratio;
        Fn_stats.Table.add_row table
          [
            Printf.sprintf "%.1f" snap.Churn.time;
            string_of_int (Fault_set.count snap.Churn.faults);
            Printf.sprintf "%.3f" gamma;
            string_of_int kept;
            Printf.sprintf "%.4f" exp_h;
            Printf.sprintf "%.2f" ratio;
          ]
      end)
    snaps;
  let checks =
    [
      (Printf.sprintf "survivor never drops below n/2 (min %d of %d)" !min_kept n,
       2 * !min_kept >= n);
      (Printf.sprintf "survivor expansion never drops below 0.3x fault-free (min %.2f)"
         !min_ratio,
       !min_ratio >= 0.3);
    ]
  in
  let notes =
    [
      Printf.sprintf
        "on/off rates %.1f/%.1f give a stationary dead fraction of %.0f%%; snapshots \
         every 2 time units over horizon 20" rate_fail rate_repair (100.0 *. stationary);
    ]
  in
  {
    Outcome.id = "E14";
    title = "Transient churn: sustained expansion of the pruned survivor over time";
    table;
    checks;
    notes;
  }
