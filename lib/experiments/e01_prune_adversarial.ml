open Fn_graph
open Fn_prng
open Fn_faults

let adversaries rng =
  [
    ("random", fun g ~budget -> Adversary.random rng g ~budget);
    ("degree", fun g ~budget -> Adversary.degree_targeted g ~budget);
    ("ball", fun g ~budget -> Adversary.ball_isolation rng g ~budget);
  ]

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let obs = cfg.Workload.obs in
  let domains = cfg.Workload.domains in
  let rng = Rng.create seed in
  let sizes = if quick then [ 256 ] else [ 256; 512; 1024 ] in
  let ks = if quick then [ 2.0 ] else [ 2.0; 4.0 ] in
  let table =
    Fn_stats.Table.create
      [ "n"; "adversary"; "k"; "f"; "kept"; "size bound"; "exp(H)"; "exp bound"; "ok" ]
  in
  let all_ok = ref true in
  let certs_ok = ref true in
  List.iter
    (fun n ->
      let g = Workload.expander rng ~n ~d:6 in
      let alpha = Workload.node_expansion_estimate ~obs ?domains rng g in
      List.iter
        (fun k ->
          let f = Faultnet.Theorem.thm21_max_faults ~alpha ~n ~k in
          List.iter
            (fun (name, attack) ->
              let cert_ok, kept, size_bound, exp_measured, exp_bound, ok =
                let faults = attack g ~budget:f in
                let alive = faults.Fault_set.alive in
                let epsilon = Faultnet.Theorem.thm21_epsilon ~k in
                let res = Faultnet.Prune.run ~obs ~rng ?domains g ~alive ~alpha ~epsilon in
                let cert_ok = Faultnet.Prune.verify_certificates g ~alive res in
                let kept = Bitset.cardinal res.Faultnet.Prune.kept in
                let size_bound = Faultnet.Theorem.thm21_min_kept ~alpha ~n ~k ~f in
                let exp_bound = Faultnet.Theorem.thm21_expansion ~alpha ~k in
                let exp_measured =
                  if kept >= 2 then
                    Workload.node_expansion_estimate ~obs ?domains rng
                      ~alive:res.Faultnet.Prune.kept g
                  else 0.0
                in
                let ok =
                  float_of_int kept >= size_bound -. 1e-9
                  && exp_measured >= exp_bound -. 1e-9
                in
                (cert_ok, kept, size_bound, exp_measured, exp_bound, ok)
              in
              if not cert_ok then certs_ok := false;
              if not ok then all_ok := false;
              Fn_stats.Table.add_row table
                [
                  string_of_int n;
                  name;
                  Printf.sprintf "%.0f" k;
                  string_of_int f;
                  string_of_int kept;
                  Printf.sprintf "%.1f" size_bound;
                  Printf.sprintf "%.4f" exp_measured;
                  Printf.sprintf "%.4f" exp_bound;
                  Workload.bool_cell ok;
                ])
            (adversaries rng))
        ks)
    sizes;
  {
    Outcome.id = "E1";
    title = "Theorem 2.1: Prune keeps a large, expanding component under adversarial faults";
    table;
    checks =
      [
        ("size and expansion guarantees hold on every row", !all_ok);
        ("all Prune certificates re-verify", !certs_ok);
      ];
    notes =
      [
        "alpha is the heuristic estimate on the pristine graph; expansion(H) is the \
         same estimator on the survivor, so both sides of the comparison share bias";
      ];
  }
