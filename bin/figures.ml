(* Regenerate the figure-shaped data series behind the E-experiments
   as CSV files (one per figure) under figures/.

   Usage: figures [--quick] [--seed N] [--outdir DIR]

   F1  gamma vs fault probability: chain graph vs base expander (E5)
   F2  chain-graph expansion vs k, with the 2/k prediction (E2)
   F3  gamma vs adversarial budget: chain-center attack vs random (E3)
   F4  sampled span vs network size for the conjecture families (E10)
   F5  bond-percolation gamma curves for the Sec 1.1 families (E8)
   F6  Prune2 survivor size/expansion vs fault probability (E6)
   F7  butterfly vs multibutterfly service vs fault rate (E13)
   F8  mesh self-embedding slowdown vs fault probability (E12) *)

open Fn_graph
open Fn_prng
open Fn_faults

let gamma g alive =
  let comps = Components.compute ~alive (Gview.Csr g) in
  float_of_int (Components.largest_size comps) /. float_of_int (Graph.num_nodes g)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let write_csv dir name table =
  let path = Filename.concat dir name in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Fn_stats.Table.to_csv table ^ "\n"));
  Printf.printf "wrote %s\n%!" path

let f1_gamma_vs_p rng ~quick dir =
  let base_n = if quick then 32 else 64 in
  let trials = if quick then 3 else 8 in
  let base = Fn_topology.Expander.random_regular rng ~n:base_n ~d:4 in
  let cg = Fn_topology.Chain_graph.build base ~k:32 in
  let h = cg.Fn_topology.Chain_graph.graph in
  let table = Fn_stats.Table.create [ "p"; "gamma_chain"; "gamma_expander" ] in
  List.iter
    (fun p ->
      let mc =
        mean
          (List.init trials (fun _ ->
               gamma h (Random_faults.nodes_iid rng h p).Fault_set.alive))
      in
      let mb =
        mean
          (List.init trials (fun _ ->
               gamma base (Random_faults.nodes_iid rng base p).Fault_set.alive))
      in
      Fn_stats.Table.add_float_row table (Printf.sprintf "%.4f" p) [ mc; mb ])
    (List.init 18 (fun i -> 0.01 *. float_of_int (i + 1)));
  write_csv dir "f1_gamma_vs_p.csv" table

let f2_expansion_vs_k rng ~quick dir =
  let base_n = if quick then 32 else 64 in
  let base = Fn_topology.Expander.random_regular rng ~n:base_n ~d:4 in
  let table = Fn_stats.Table.create [ "k"; "alpha"; "prediction_2_over_k" ] in
  List.iter
    (fun k ->
      let cg = Fn_topology.Chain_graph.build base ~k in
      let h = cg.Fn_topology.Chain_graph.graph in
      let alpha =
        (Fn_expansion.Estimate.run ~rng h Fn_expansion.Cut.Node).Fn_expansion.Estimate.value
      in
      Fn_stats.Table.add_float_row table (string_of_int k)
        [ alpha; 2.0 /. float_of_int k ])
    [ 2; 4; 8; 16 ];
  write_csv dir "f2_expansion_vs_k.csv" table

let f3_attack_sweep rng ~quick dir =
  let base_n = if quick then 32 else 64 in
  let base = Fn_topology.Expander.random_regular rng ~n:base_n ~d:4 in
  let cg = Fn_topology.Chain_graph.build base ~k:8 in
  let h = cg.Fn_topology.Chain_graph.graph in
  let centers = Fn_topology.Chain_graph.chain_centers cg in
  let m = Array.length centers in
  let table = Fn_stats.Table.create [ "budget"; "gamma_attack"; "gamma_random" ] in
  for step = 0 to 10 do
    let budget = step * m / 10 in
    let attack = Adversary.targets h ~targets:centers ~budget in
    let random = Adversary.random rng h ~budget in
    Fn_stats.Table.add_float_row table (string_of_int budget)
      [ gamma h attack.Fault_set.alive; gamma h random.Fault_set.alive ]
  done;
  write_csv dir "f3_attack_sweep.csv" table

let f4_span_vs_size rng ~quick dir =
  let samples = if quick then 40 else 150 in
  let table = Fn_stats.Table.create [ "family"; "nodes"; "sampled_span" ] in
  let families =
    [
      ("butterfly", List.map (fun k -> Fn_topology.Butterfly.unwrapped k) [ 3; 4; 5 ]);
      ("debruijn", List.map Fn_topology.Debruijn.graph [ 6; 8; 10 ]);
      ("shuffle_exchange", List.map Fn_topology.Shuffle_exchange.graph [ 6; 8; 10 ]);
    ]
  in
  List.iter
    (fun (name, gs) ->
      List.iter
        (fun g ->
          let est = Faultnet.Span.sample rng ~samples g in
          Fn_stats.Table.add_row table
            [
              name;
              string_of_int (Graph.num_nodes g);
              Printf.sprintf "%.4f" est.Faultnet.Span.span;
            ])
        gs)
    families;
  write_csv dir "f4_span_vs_size.csv" table

let f5_percolation_curves rng ~quick dir =
  let runs = if quick then 8 else 24 in
  let side = if quick then 24 else 48 in
  let mesh, _ = Fn_topology.Mesh.cube ~d:2 ~side in
  let families =
    [
      ("complete", Fn_topology.Basic.complete 128);
      ("sparse_d4", Fn_topology.Random_graphs.gnm rng 1024 2048);
      ("mesh2d", mesh);
      ("hypercube", Fn_topology.Hypercube.graph (if quick then 8 else 10));
    ]
  in
  let ps = List.init 20 (fun i -> 0.05 *. float_of_int (i + 1) /. 1.0) in
  let table = Fn_stats.Table.create [ "family"; "p"; "gamma_mean"; "gamma_std" ] in
  List.iter
    (fun (name, g) ->
      let pts = Fn_percolation.Threshold.gamma_curve ~runs ~rng Fn_percolation.Threshold.Bond (Gview.Csr g) ps in
      List.iter
        (fun (p, m, s) ->
          Fn_stats.Table.add_row table
            [ name; Printf.sprintf "%.3f" p; Printf.sprintf "%.4f" m; Printf.sprintf "%.4f" s ])
        pts)
    families;
  write_csv dir "f5_percolation_curves.csv" table

let f6_prune2_sweep rng ~quick dir =
  let side = if quick then 12 else 16 in
  let g, _ = Fn_topology.Torus.cube ~d:2 ~side in
  let alpha_e =
    (Fn_expansion.Estimate.run ~rng g Fn_expansion.Cut.Edge).Fn_expansion.Estimate.value
  in
  let epsilon = Faultnet.Theorem.thm34_max_epsilon ~delta:(Graph.max_degree g) in
  let table = Fn_stats.Table.create [ "p"; "kept_fraction"; "survivor_expansion" ] in
  List.iter
    (fun p ->
      let faults = Random_faults.nodes_iid rng g p in
      let res = Faultnet.Prune2.run ~rng g ~alive:faults.Fault_set.alive ~alpha_e ~epsilon in
      let kept = res.Faultnet.Prune2.kept in
      let expansion =
        match Faultnet.Report.survivor_expansion g kept Fn_expansion.Cut.Edge with
        | Some v -> v
        | None -> 0.0
      in
      Fn_stats.Table.add_float_row table (Printf.sprintf "%.3f" p)
        [
          float_of_int (Bitset.cardinal kept) /. float_of_int (Graph.num_nodes g); expansion;
        ])
    (List.init 10 (fun i -> 0.025 *. float_of_int (i + 1)));
  write_csv dir "f6_prune2_sweep.csv" table

let f7_butterfly_service rng ~quick dir =
  let k = if quick then 5 else 6 in
  let trials = if quick then 3 else 5 in
  let bf = Fn_topology.Butterfly.unwrapped k in
  let mbf = Fn_topology.Multibutterfly.build rng ~k ~multiplicity:2 in
  let rows = 1 lsl k in
  let inputs = Array.init rows (fun r -> Fn_topology.Butterfly.node ~k ~level:0 ~row:r) in
  let outputs = Array.init rows (fun r -> Fn_topology.Butterfly.node ~k ~level:k ~row:r) in
  let forward_serves g alive =
    (* fraction of alive inputs reaching >= half the alive outputs on
       level-monotone paths; mirrors e13 *)
    let alive_outputs = Array.to_list outputs |> List.filter (Bitset.mem alive) in
    let total = List.length alive_outputs in
    if total = 0 then 0.0
    else begin
      let good = ref 0 and live = ref 0 in
      Array.iter
        (fun input ->
          if Bitset.mem alive input then begin
            incr live;
            let n = Graph.num_nodes g in
            let seen = Bitset.create n in
            let q = Queue.create () in
            Bitset.add seen input;
            Queue.add input q;
            while not (Queue.is_empty q) do
              let u = Queue.pop q in
              let nl = (u / rows) + 1 in
              Graph.iter_neighbors g u (fun w ->
                  if w / rows = nl && Bitset.mem alive w && not (Bitset.mem seen w) then begin
                    Bitset.add seen w;
                    Queue.add w q
                  end)
            done;
            let reached =
              List.fold_left (fun acc o -> if Bitset.mem seen o then acc + 1 else acc) 0
                alive_outputs
            in
            if 2 * reached >= total then incr good
          end)
        inputs;
      if !live = 0 then 0.0 else float_of_int !good /. float_of_int !live
    end
  in
  let n = Graph.num_nodes bf in
  let table = Fn_stats.Table.create [ "fault_frac"; "butterfly"; "multibutterfly" ] in
  List.iter
    (fun frac ->
      let budget = int_of_float (frac *. float_of_int n) in
      let measure g =
        mean
          (List.init trials (fun _ ->
               forward_serves g (Random_faults.nodes_exact rng g budget).Fault_set.alive))
      in
      Fn_stats.Table.add_float_row table (Printf.sprintf "%.3f" frac)
        [ measure bf; measure mbf.Fn_topology.Multibutterfly.graph ])
    (List.init 10 (fun i -> 0.025 *. float_of_int (i + 1)));
  write_csv dir "f7_butterfly_service.csv" table

let f8_embedding_sweep rng ~quick dir =
  let side = if quick then 12 else 16 in
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side in
  let alpha_e =
    (Fn_expansion.Estimate.run ~rng g Fn_expansion.Cut.Edge).Fn_expansion.Estimate.value
  in
  let table = Fn_stats.Table.create [ "p"; "load"; "congestion"; "dilation"; "lmr_bound" ] in
  List.iter
    (fun p ->
      let faults = Random_faults.nodes_iid rng g p in
      let res =
        Faultnet.Prune2.run ~rng g ~alive:faults.Fault_set.alive ~alpha_e ~epsilon:0.125
      in
      let emb = Faultnet.Embedding.self_embed g ~kept:res.Faultnet.Prune2.kept in
      Fn_stats.Table.add_float_row table (Printf.sprintf "%.3f" p)
        [
          float_of_int emb.Faultnet.Embedding.load;
          float_of_int emb.Faultnet.Embedding.congestion;
          float_of_int emb.Faultnet.Embedding.dilation;
          float_of_int (Faultnet.Embedding.slowdown_bound emb);
        ])
    (List.init 8 (fun i -> 0.02 *. float_of_int (i + 1)));
  write_csv dir "f8_embedding_sweep.csv" table

let usage () =
  prerr_endline "usage: figures [--quick] [--seed N] [--outdir DIR]";
  exit 2

let () =
  let quick = ref false in
  let seed = ref 1234 in
  let outdir = ref "figures" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s ->
        seed := s;
        parse rest
      | None -> usage ())
    | "--outdir" :: v :: rest ->
      outdir := v;
      parse rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (Sys.file_exists !outdir) then Sys.mkdir !outdir 0o755;
  let rng = Rng.create !seed in
  let quick = !quick in
  f1_gamma_vs_p rng ~quick !outdir;
  f2_expansion_vs_k rng ~quick !outdir;
  f3_attack_sweep rng ~quick !outdir;
  f4_span_vs_size rng ~quick !outdir;
  f5_percolation_curves rng ~quick !outdir;
  f6_prune2_sweep rng ~quick !outdir;
  f7_butterfly_service rng ~quick !outdir;
  f8_embedding_sweep rng ~quick !outdir;
  print_endline "all figures written"
