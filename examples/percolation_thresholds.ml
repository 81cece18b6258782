(* The classical percolation thresholds quoted in Section 1.1 of the
   paper, reproduced by Monte-Carlo (Newman-Ziff sweeps).

   Run with:  dune exec examples/percolation_thresholds.exe *)

open Fn_percolation

let () =
  let rng = Fn_prng.Rng.create 2718 in
  let runs = 24 in
  Printf.printf "bond percolation thresholds (gamma crossing level 0.4, %d runs each)\n\n" runs;
  Printf.printf "%-22s %-8s %-11s %-10s %s\n" "family" "nodes" "p measured" "p theory" "source";
  let families =
    [
      ("complete K_128", Fn_topology.Basic.complete 128, 1.0 /. 127.0, "Erdos-Renyi 1960");
      ( "G(n, 2n edges)",
        Fn_topology.Random_graphs.gnm rng 1024 2048,
        0.25,
        "1/d, d = 4" );
      ("2-D mesh 48x48", fst (Fn_topology.Mesh.cube ~d:2 ~side:48), 0.5, "Kesten 1980");
      ("hypercube d=10", Fn_topology.Hypercube.graph 10, 0.1, "Ajtai-Komlos-Szemeredi");
    ]
  in
  List.iter
    (fun (name, g, p_theory, source) ->
      let r = Threshold.estimate ~runs ~rng Threshold.Bond (Fn_graph.Gview.Csr g) in
      Printf.printf "%-22s %-8d %-11.4f %-10.4f %s\n" name (Fn_graph.Graph.num_nodes g)
        r.Threshold.p_star p_theory source)
    families;
  print_endline "";
  print_endline "(finite sizes and the crossing-level constant shift the measured values;";
  print_endline " the orders of magnitude and the ranking match the theory column)"
