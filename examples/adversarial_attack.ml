(* Adversarial resilience: an expander shrugs off a fault budget that
   completely shatters a chain-replacement graph of the same size
   scale (Theorems 2.1 vs 2.3 of the paper).

   Run with:  dune exec examples/adversarial_attack.exe *)

open Fn_graph
open Fn_faults

let gamma g alive =
  let comps = Components.compute ~alive (Gview.Csr g) in
  float_of_int (Components.largest_size comps) /. float_of_int (Graph.num_nodes g)

let () =
  let rng = Fn_prng.Rng.create 7 in

  (* The resilient network: a random 6-regular expander. *)
  let expander = Fn_topology.Expander.random_regular rng ~n:512 ~d:6 in
  let alpha =
    (Fn_expansion.Estimate.run ~rng expander Fn_expansion.Cut.Node).Fn_expansion.Estimate.value
  in
  Printf.printf "expander: n=512 d=6, node expansion ~ %.3f\n" alpha;

  (* The fragile network: same expander family, but every edge is
     stretched into a chain of k=8 nodes (Theorem 2.3's construction).
     Its expansion drops to ~2/k and so does its fault tolerance. *)
  let base = Fn_topology.Expander.random_regular rng ~n:64 ~d:4 in
  let chain = Fn_topology.Chain_graph.build base ~k:8 in
  let h = chain.Fn_topology.Chain_graph.graph in
  Printf.printf "chain graph H(G,8): n=%d, expansion ~ 2/8 = 0.25\n" (Graph.num_nodes h);

  let budget_frac = 0.12 in
  print_endline "";
  Printf.printf "%-28s %-10s %-10s\n" "attack (12% of nodes)" "expander" "chain graph";

  let attack name make_e make_h =
    let fe = make_e expander ~budget:(int_of_float (budget_frac *. 512.0)) in
    let fh = make_h h ~budget:(int_of_float (budget_frac *. float_of_int (Graph.num_nodes h))) in
    Printf.printf "%-28s %-10.3f %-10.3f\n" name
      (gamma expander fe.Fault_set.alive)
      (gamma h fh.Fault_set.alive)
  in
  attack "random faults"
    (fun g ~budget -> Adversary.random rng g ~budget)
    (fun g ~budget -> Adversary.random rng g ~budget);
  attack "degree-targeted"
    (fun g ~budget -> Adversary.degree_targeted g ~budget)
    (fun g ~budget -> Adversary.degree_targeted g ~budget);
  let centers = Fn_topology.Chain_graph.chain_centers chain in
  attack "chain centers / ball"
    (fun g ~budget -> Adversary.ball_isolation rng g ~budget)
    (fun g ~budget -> Adversary.targets g ~targets:centers ~budget);

  print_endline "";
  print_endline "(gamma = largest component / original size; the chain-center column";
  print_endline " realizes the Theorem 2.3 adversary: same budget, catastrophic damage)"
