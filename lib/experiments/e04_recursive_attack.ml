open Fn_prng
open Fn_faults

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let rng = Rng.create seed in
  let sides = if quick then [ 16 ] else [ 16; 24; 32 ] in
  let epsilon = 0.125 in
  let constant_cap = 4.0 in
  let table =
    Fn_stats.Table.create
      [ "side"; "n"; "faults"; "alpha*n"; "budget shape"; "ratio"; "max frag"; "eps*n" ]
  in
  let frags_ok = ref true in
  let budget_ok = ref true in
  List.iter
    (fun side ->
      let n = side * side in
      let faults, max_frag =
        let g, _geo = Fn_topology.Mesh.cube ~d:2 ~side in
        let res = Adversary.recursive_cut ~rng g ~epsilon in
        let max_frag =
          match res.Adversary.final_fragments with [] -> 0 | x :: _ -> x
        in
        (Fault_set.count res.Adversary.faults, max_frag)
      in
      let alpha_n = float_of_int n /. float_of_int side in
      let shape = log (1.0 /. epsilon) /. epsilon *. alpha_n in
      let eps_n = epsilon *. float_of_int n in
      if float_of_int max_frag >= eps_n then frags_ok := false;
      if float_of_int faults > constant_cap *. shape then budget_ok := false;
      Fn_stats.Table.add_row table
        [
          string_of_int side;
          string_of_int n;
          string_of_int faults;
          Printf.sprintf "%.0f" alpha_n;
          Printf.sprintf "%.0f" shape;
          Printf.sprintf "%.2f" (float_of_int faults /. alpha_n);
          string_of_int max_frag;
          Printf.sprintf "%.0f" eps_n;
        ])
    sides;
  {
    Outcome.id = "E4";
    title = "Theorem 2.5: recursive min-cut attack shatters uniform-expansion graphs";
    table;
    checks =
      [
        ("every final fragment is below eps*n", !frags_ok);
        ( Printf.sprintf "faults spent <= %.0f x log(1/eps)/eps * alpha(n)*n" constant_cap,
          !budget_ok );
      ];
    notes =
      [
        "alpha(n)*n for the side x side mesh is n/side = side; the 'ratio' column shows \
         faults spent in units of alpha*n";
      ];
  }
