open Fn_graph
open Fn_prng
open Fn_faults
open Fn_routing

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let rng = Rng.create seed in
  let n_exp = if quick then 256 else 512 in
  let base_n = if quick then 32 else 64 in
  let side = if quick then 12 else 16 in
  let fault_frac = 0.10 in
  let expander = Workload.expander rng ~n:n_exp ~d:6 in
  let chain =
    (Fn_topology.Chain_graph.build (Workload.expander rng ~n:base_n ~d:4) ~k:8)
      .Fn_topology.Chain_graph.graph
  in
  let mesh, _ = Fn_topology.Mesh.cube ~d:2 ~side in
  let table =
    Fn_stats.Table.create
      [ "network"; "n"; "faults"; "routable"; "stretch"; "congestion"; "makespan"; "ideal" ]
  in
  let results = Hashtbl.create 8 in
  let eval name g =
    let n = Graph.num_nodes g in
    let budget = int_of_float (fault_frac *. float_of_int n) in
    let routable, stretch, faulty_congestion, makespan, ideal_makespan =
      let faults = Random_faults.nodes_iid rng g fault_frac in
      let alive = faults.Fault_set.alive in
      (* the demand lives on the surviving nodes, so routability
         measures fragmentation rather than the obvious loss of
         dead endpoints *)
      let demand = Demand.permutation rng ~alive g in
      let reference = Route.shortest g demand in
      let ideal = Sim.run g reference in
      (* route on the largest surviving component *)
      let survivor = Components.largest_members ~alive (Gview.Csr g) in
      let faulty = Route.shortest ~alive:survivor g demand in
      let sim = Sim.run g faulty in
      ( Route.routable_fraction faulty,
        Route.stretch ~reference faulty,
        Route.edge_congestion faulty,
        sim.Sim.makespan,
        ideal.Sim.makespan )
    in
    Hashtbl.replace results name routable;
    Fn_stats.Table.add_row table
      [
        name;
        string_of_int n;
        string_of_int budget;
        Printf.sprintf "%.3f" routable;
        (if Float.is_nan stretch then "n/a" else Printf.sprintf "%.3f" stretch);
        string_of_int faulty_congestion;
        string_of_int makespan;
        string_of_int ideal_makespan;
      ]
  in
  eval "expander d=6" expander;
  eval "mesh 2-D" mesh;
  eval "chain H(G,8)" chain;
  let get name = try Hashtbl.find results name with Not_found -> 0.0 in
  let expander_ok = get "expander d=6" > 0.95 in
  let ordering_ok = get "expander d=6" > get "chain H(G,8)" in
  {
    Outcome.id = "E11";
    title = "Motivation: surviving bandwidth — routing a permutation through faulty networks";
    table;
    checks =
      [
        ("expander routes > 95% of the surviving permutation after 10% faults", expander_ok);
        ("expander beats the chain graph on routability", ordering_ok);
      ];
    notes =
      [
        "demand is a permutation of the surviving nodes; routable counts pairs connected \
         inside the largest surviving component; stretch compares against fault-free paths";
      ];
  }
