open Fn_graph
open Fn_prng

type t = {
  nodes : int;
  edges : int;
  faults : int;
  gamma : float;
  alpha_e_before : float;
  kept : int;
  alpha_e_after : float;
  expansion_ratio : float;
  certificates_ok : bool;
  slowdown : int;
  routable : float;
  stretch : float;
}

let analyze ?rng ?epsilon g ~faults =
  let rng = match rng with Some r -> r | None -> Rng.create 0x5CE0 in
  let alive = faults.Fn_faults.Fault_set.alive in
  if Bitset.cardinal alive < 2 then invalid_arg "Scenario.analyze: need >= 2 alive nodes";
  let n = Graph.num_nodes g in
  let before = Fn_expansion.Estimate.run ~rng g Fn_expansion.Cut.Edge in
  let alpha_e_before = before.Fn_expansion.Estimate.value in
  let comps = Components.compute ~alive (Gview.Csr g) in
  let gamma = float_of_int (Components.largest_size comps) /. float_of_int n in
  let delta = Graph.max_degree g in
  let epsilon =
    match epsilon with
    | Some e -> e
    | None -> min 0.45 (Theorem.thm34_max_epsilon ~delta)
  in
  let pruned = Prune2.run ~rng g ~alive ~alpha_e:alpha_e_before ~epsilon in
  let kept_set = pruned.Prune2.kept in
  let kept = Bitset.cardinal kept_set in
  let certificates_ok = Prune2.verify_certificates g ~alive pruned in
  let alpha_e_after =
    match Report.survivor_expansion g kept_set Fn_expansion.Cut.Edge with
    | Some v -> v
    | None -> 0.0
  in
  let slowdown =
    if kept = 0 then 0
    else Embedding.slowdown_bound (Embedding.self_embed g ~kept:kept_set)
  in
  let demand = Fn_routing.Demand.permutation rng ~alive g in
  let routable, stretch =
    if Array.length demand = 0 then (1.0, nan)
    else begin
      let survivor = Components.largest_members ~alive (Gview.Csr g) in
      let reference = Fn_routing.Route.shortest g demand in
      let faulty = Fn_routing.Route.shortest ~alive:survivor g demand in
      (Fn_routing.Route.routable_fraction faulty, Fn_routing.Route.stretch ~reference faulty)
    end
  in
  {
    nodes = n;
    edges = Graph.num_edges g;
    faults = Fn_faults.Fault_set.count faults;
    gamma;
    alpha_e_before;
    kept;
    alpha_e_after;
    expansion_ratio =
      (if alpha_e_before > 0.0 then alpha_e_after /. alpha_e_before else nan);
    certificates_ok;
    slowdown;
    routable;
    stretch;
  }

let to_string t =
  String.concat "\n"
    [
      Printf.sprintf "network: %d nodes, %d edges; faults: %d (%.1f%%)" t.nodes t.edges
        t.faults
        (100.0 *. float_of_int t.faults /. float_of_int (max 1 t.nodes));
      Printf.sprintf "connectivity: largest component holds %.1f%% of the network"
        (100.0 *. t.gamma);
      Printf.sprintf
        "expansion: %.4f fault-free -> %.4f on the pruned survivor (%d nodes, ratio %.2f)"
        t.alpha_e_before t.alpha_e_after t.kept t.expansion_ratio;
      Printf.sprintf "certificates: %s"
        (if t.certificates_ok then "verified" else "FAILED TO VERIFY");
      Printf.sprintf "emulation: LMR slowdown bound O(%d)" t.slowdown;
      Printf.sprintf "routing: %.1f%% of a surviving permutation routable, stretch %.3f"
        (100.0 *. t.routable) t.stretch;
    ]
