(* faultnet — command-line front end.

   Subcommands:
     gen         generate a topology and write it as an edge list
     expansion   estimate node/edge expansion of a graph file
     prune       run Prune/Prune2 on a graph with injected faults
     span        estimate the span of a graph file
     percolate   estimate a percolation threshold
     attack      apply an adversary and report component structure
     route       route a random permutation, optionally through faults
     report      full resilience report of a faulty graph
     connectivity  exact edge connectivity and Menger path counts
     metrics     structural metrics of a graph

   Subcommands touching the instrumented kernels (expansion, prune,
   percolate) accept --trace FILE (JSONL span stream) and --metrics
   (registry dump on stderr at exit).

   The E1-E14 experiments, the micro-benchmarks and the online daemon
   each have their own binary: bin/experiments.exe, bench/main.exe and
   bin/faultnetd.exe. *)

open Cmdliner

let seed_arg =
  let doc = "PRNG seed; every run is deterministic given the seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let rng_of_seed seed = Fn_prng.Rng.create seed

(* ---- observability flags shared by the instrumented subcommands ---- *)

let trace_arg =
  let doc = "Stream observability spans and events as JSONL to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Print the metrics registry to stderr when the command finishes." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* Build the sink from the flags, run the command body with it, and
   always flush/report at the end.  No flags -> null sink: the
   instrumented kernels skip every clock read and allocation.  A trace
   file that cannot be opened is a usage error (exit 124) before any
   work; one whose writes fail (a full disk) is named after the
   command's output and the metrics report, with exit 1. *)
let with_obs ~trace ~metrics f =
  match Fn_obs.Sink.of_flags ~trace ~metrics with
  | Error m -> `Error (false, m)
  | Ok sink -> (
    let closed = ref (Ok ()) in
    let finish () =
      closed := Fn_obs.Sink.close sink;
      if metrics then prerr_string (Fn_obs.Metrics.report_text ())
    in
    let result = Fun.protect ~finally:finish (fun () -> f sink) in
    match !closed with
    | Ok () -> result
    | Error m ->
      prerr_endline ("faultnet: " ^ m);
      exit 1)

(* ---- topology construction shared by gen/prune/span/... ---- *)

(* The one spec parser (also faultnetd's); its implicit families are
   materialized here, since the subcommands work on CSR graphs. *)
let build_topology rng spec =
  match Fn_topology.Spec.view rng spec with
  | Ok view -> Ok (Fn_graph.Gview.materialize view)
  | Error m -> Error (`Msg m)

let topology_arg =
  let doc =
    "Topology spec, e.g. mesh:8x8, torus:16x16, hypercube:10, expander:256:6, chain:64:4:8, \
     can:2:256."
  in
  Arg.(required & opt (some string) None & info [ "topology"; "t" ] ~docv:"SPEC" ~doc)

let load_graph rng ~topology ~input =
  match (topology, input) with
  | Some spec, None -> build_topology rng spec
  | None, Some path -> (
    try Ok (Fn_graph.Gio.load path) with
    | Sys_error m | Failure m -> Error (`Msg m))
  | _ -> Error (`Msg "provide exactly one of --topology or --input")

let input_arg =
  let doc = "Read the graph from an edge-list file instead of generating it." in
  Arg.(value & opt (some file) None & info [ "input"; "i" ] ~docv:"FILE" ~doc)

let topology_opt_arg =
  let doc = "Topology spec (see gen --help)." in
  Arg.(value & opt (some string) None & info [ "topology"; "t" ] ~docv:"SPEC" ~doc)

(* A bad --fault-p is a usage error, found before the graph is built so
   nothing reaches stdout; NaN fails both comparisons. *)
let check_fault_p p =
  if p >= 0.0 && p <= 1.0 then Ok ()
  else Error (`Msg (Printf.sprintf "--fault-p must be in [0, 1], got %g" p))

(* ---- gen ---- *)

let gen_cmd =
  let output =
    let doc = "Output file (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let run seed spec output =
    let rng = rng_of_seed seed in
    match build_topology rng spec with
    | Error (`Msg m) -> `Error (false, m)
    | Ok g ->
      (match output with
      | Some path -> Fn_graph.Gio.save path g
      | None -> print_string (Fn_graph.Gio.to_edge_list_string g));
      `Ok ()
  in
  let term = Term.(ret (const run $ seed_arg $ topology_arg $ output)) in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a topology as an edge list") term

(* ---- expansion ---- *)

let objective_arg =
  let doc = "Objective: node or edge." in
  let obj_conv =
    Arg.enum [ ("node", Fn_expansion.Cut.Node); ("edge", Fn_expansion.Cut.Edge) ]
  in
  Arg.(value & opt obj_conv Fn_expansion.Cut.Node & info [ "objective" ] ~docv:"OBJ" ~doc)

let expansion_cmd =
  let run seed topology input objective trace metrics =
    let rng = rng_of_seed seed in
    match load_graph rng ~topology ~input with
    | Error (`Msg m) -> `Error (false, m)
    | Ok g ->
      with_obs ~trace ~metrics @@ fun obs ->
      let est = Fn_expansion.Estimate.run ~obs ~rng g objective in
      Printf.printf "graph: %d nodes, %d edges\n" (Fn_graph.Graph.num_nodes g)
        (Fn_graph.Graph.num_edges g);
      Printf.printf "%s expansion %s: %.6f (witness side %d)\n"
        (match objective with Fn_expansion.Cut.Node -> "node" | Fn_expansion.Cut.Edge -> "edge")
        (if est.Fn_expansion.Estimate.exact then "(exact)" else "(heuristic upper bound)")
        est.Fn_expansion.Estimate.value
        (Fn_graph.Bitset.cardinal est.Fn_expansion.Estimate.witness);
      (* off the exact branch [lower] is a Cheeger estimate, which
         bounds only a converged lambda2 *)
      (match est.Fn_expansion.Estimate.lower with
      | Some lb ->
        Printf.printf "%s: %.6f\n"
          (if est.Fn_expansion.Estimate.exact then "lower bound" else "Cheeger estimate")
          lb
      | None -> ());
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ seed_arg $ topology_opt_arg $ input_arg $ objective_arg $ trace_arg
       $ metrics_arg))
  in
  Cmd.v (Cmd.info "expansion" ~doc:"Estimate the expansion of a graph") term

(* ---- prune ---- *)

let prune_cmd =
  let fault_p =
    let doc = "Random node-fault probability." in
    Arg.(value & opt float 0.05 & info [ "fault-p" ] ~docv:"P" ~doc)
  in
  let epsilon =
    let doc = "Pruning threshold fraction epsilon in (0,1)." in
    Arg.(value & opt float 0.5 & info [ "epsilon" ] ~docv:"EPS" ~doc)
  in
  let edge_mode =
    let doc = "Use Prune2 (edge expansion, compactified culls) instead of Prune." in
    Arg.(value & flag & info [ "edge" ] ~doc)
  in
  let run seed topology input fault_p epsilon edge_mode trace metrics =
    let rng = rng_of_seed seed in
    let graph =
      if not (epsilon > 0.0 && epsilon < 1.0) then
        Error (`Msg (Printf.sprintf "--epsilon must be in (0, 1), got %g" epsilon))
      else Result.bind (check_fault_p fault_p) (fun () -> load_graph rng ~topology ~input)
    in
    match graph with
    | Error (`Msg m) -> `Error (false, m)
    | Ok g ->
      with_obs ~trace ~metrics @@ fun obs ->
      let faults = Fn_faults.Random_faults.nodes_iid rng g fault_p in
      let alive = faults.Fn_faults.Fault_set.alive in
      Printf.printf "graph: %d nodes; faults: %d\n" (Fn_graph.Graph.num_nodes g)
        (Fn_faults.Fault_set.count faults);
      if edge_mode then begin
        let alpha_e =
          (Fn_expansion.Estimate.run ~obs ~rng g Fn_expansion.Cut.Edge)
            .Fn_expansion.Estimate.value
        in
        let res = Faultnet.Prune2.run ~obs ~rng g ~alive ~alpha_e ~epsilon in
        print_endline (Faultnet.Report.prune2_summary g res)
      end
      else begin
        let alpha =
          (Fn_expansion.Estimate.run ~obs ~rng g Fn_expansion.Cut.Node)
            .Fn_expansion.Estimate.value
        in
        let res = Faultnet.Prune.run ~obs ~rng g ~alive ~alpha ~epsilon in
        print_endline (Faultnet.Report.prune_summary g res)
      end;
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ seed_arg $ topology_opt_arg $ input_arg $ fault_p $ epsilon $ edge_mode
       $ trace_arg $ metrics_arg))
  in
  Cmd.v (Cmd.info "prune" ~doc:"Inject random faults and run Prune/Prune2") term

(* ---- span ---- *)

let span_cmd =
  let samples =
    let doc = "Number of sampled compact sets (large graphs)." in
    Arg.(value & opt int 200 & info [ "samples" ] ~docv:"N" ~doc)
  in
  let run seed topology input samples =
    let rng = rng_of_seed seed in
    match load_graph rng ~topology ~input with
    | Error (`Msg m) -> `Error (false, m)
    | Ok g ->
      let n = Fn_graph.Graph.num_nodes g in
      let est =
        if n <= 16 then Faultnet.Span.exact g else Faultnet.Span.sample rng ~samples g
      in
      Printf.printf "graph: %d nodes; %s span estimate: %.4f over %d compact sets%s\n" n
        (if n <= 16 then "exhaustive" else "sampled")
        est.Faultnet.Span.span est.Faultnet.Span.sets_examined
        (if est.Faultnet.Span.all_exact then "" else " (some trees 2-approximate)");
      `Ok ()
  in
  let term = Term.(ret (const run $ seed_arg $ topology_opt_arg $ input_arg $ samples)) in
  Cmd.v (Cmd.info "span" ~doc:"Estimate the span (Equation 1 of the paper)") term

(* ---- percolate ---- *)

let percolate_cmd =
  let runs =
    let doc = "Newman-Ziff curves to average." in
    Arg.(value & opt int 32 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let mode =
    let doc = "Percolation mode: site or bond." in
    let mode_conv =
      Arg.enum
        [ ("site", Fn_percolation.Threshold.Site); ("bond", Fn_percolation.Threshold.Bond) ]
    in
    Arg.(value & opt mode_conv Fn_percolation.Threshold.Bond & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let run seed topology input runs mode trace metrics =
    let rng = rng_of_seed seed in
    match load_graph rng ~topology ~input with
    | Error (`Msg m) -> `Error (false, m)
    | Ok g ->
      with_obs ~trace ~metrics @@ fun obs ->
      let r = Fn_percolation.Threshold.estimate ~obs ~runs ~rng mode (Fn_graph.Gview.Csr g) in
      Printf.printf "threshold estimate: p* = %.4f (gamma level %.2f, %d runs)\n"
        r.Fn_percolation.Threshold.p_star r.Fn_percolation.Threshold.level
        r.Fn_percolation.Threshold.runs;
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ seed_arg $ topology_opt_arg $ input_arg $ runs $ mode $ trace_arg
       $ metrics_arg))
  in
  Cmd.v (Cmd.info "percolate" ~doc:"Estimate a percolation threshold") term

(* ---- attack ---- *)

let attack_cmd =
  let budget =
    let doc = "Fault budget (number of nodes the adversary removes)." in
    Arg.(required & opt (some int) None & info [ "budget"; "f" ] ~docv:"F" ~doc)
  in
  let strategy =
    let doc = "Adversary: random, degree, ball, recursive." in
    Arg.(value & opt string "degree" & info [ "strategy" ] ~docv:"NAME" ~doc)
  in
  let run seed topology input budget strategy =
    let rng = rng_of_seed seed in
    match load_graph rng ~topology ~input with
    | Error (`Msg m) -> `Error (false, m)
    | Ok g when budget < 0 || budget > Fn_graph.Graph.num_nodes g ->
      `Error
        (false,
         Printf.sprintf "--budget must be in [0, %d], got %d" (Fn_graph.Graph.num_nodes g) budget)
    | Ok g -> (
      let report faults =
        let alive = faults.Fn_faults.Fault_set.alive in
        let comps = Fn_graph.Components.compute ~alive (Fn_graph.Gview.Csr g) in
        Printf.printf "faults: %d; components: %d; largest: %d of %d\n"
          (Fn_faults.Fault_set.count faults)
          comps.Fn_graph.Components.count
          (Fn_graph.Components.largest_size comps)
          (Fn_graph.Graph.num_nodes g);
        `Ok ()
      in
      match strategy with
      | "random" -> report (Fn_faults.Adversary.random rng g ~budget)
      | "degree" -> report (Fn_faults.Adversary.degree_targeted g ~budget)
      | "ball" -> report (Fn_faults.Adversary.ball_isolation rng g ~budget)
      | "recursive" ->
        let res = Fn_faults.Adversary.recursive_cut ~rng ~max_budget:budget g ~epsilon:0.125 in
        Printf.printf "recursive-cut attack: %d steps\n"
          (List.length res.Fn_faults.Adversary.steps);
        report res.Fn_faults.Adversary.faults
      | other -> `Error (false, Printf.sprintf "unknown strategy %S" other))
  in
  let term =
    Term.(ret (const run $ seed_arg $ topology_opt_arg $ input_arg $ budget $ strategy))
  in
  Cmd.v (Cmd.info "attack" ~doc:"Apply an adversary and report the damage") term

(* ---- route ---- *)

let route_cmd =
  let fault_p =
    let doc = "Random node-fault probability applied before routing." in
    Arg.(value & opt float 0.0 & info [ "fault-p" ] ~docv:"P" ~doc)
  in
  let run seed topology input fault_p =
    let rng = rng_of_seed seed in
    match Result.bind (check_fault_p fault_p) (fun () -> load_graph rng ~topology ~input) with
    | Error (`Msg m) -> `Error (false, m)
    | Ok g ->
      let faults = Fn_faults.Random_faults.nodes_iid rng g fault_p in
      let alive = faults.Fn_faults.Fault_set.alive in
      let demand = Fn_routing.Demand.permutation rng ~alive g in
      let survivor = Fn_graph.Components.largest_members ~alive (Fn_graph.Gview.Csr g) in
      let reference = Fn_routing.Route.shortest g demand in
      let faulty = Fn_routing.Route.shortest ~alive:survivor g demand in
      let sim = Fn_routing.Sim.run g faulty in
      Printf.printf
        "packets %d  routable %.3f  stretch %.3f  dilation %d  congestion %d  makespan %d\n"
        (Array.length demand)
        (Fn_routing.Route.routable_fraction faulty)
        (Fn_routing.Route.stretch ~reference faulty)
        (Fn_routing.Route.dilation faulty)
        (Fn_routing.Route.edge_congestion faulty)
        sim.Fn_routing.Sim.makespan;
      `Ok ()
  in
  let term = Term.(ret (const run $ seed_arg $ topology_opt_arg $ input_arg $ fault_p)) in
  Cmd.v
    (Cmd.info "route" ~doc:"Route a random permutation, optionally through faults")
    term

(* ---- metrics ---- *)

let metrics_cmd =
  let run seed topology input =
    let rng = rng_of_seed seed in
    match load_graph rng ~topology ~input with
    | Error (`Msg m) -> `Error (false, m)
    | Ok g ->
      let open Fn_graph in
      Printf.printf "nodes %d  edges %d  degrees [%d, %d]\n" (Graph.num_nodes g)
        (Graph.num_edges g) (Graph.min_degree g) (Graph.max_degree g);
      Printf.printf "connected: %b  diameter (double-sweep >=): %d  mean distance ~ %.2f\n"
        (Components.is_connected (Gview.Csr g))
        (Metrics.diameter_estimate rng g)
        (Metrics.mean_distance rng g);
      Printf.printf "clustering: %.4f\n" (Metrics.clustering_coefficient g);
      `Ok ()
  in
  let term = Term.(ret (const run $ seed_arg $ topology_opt_arg $ input_arg)) in
  Cmd.v (Cmd.info "metrics" ~doc:"Print structural metrics of a graph") term

(* ---- connectivity ---- *)

let connectivity_cmd =
  let run seed topology input =
    let rng = rng_of_seed seed in
    match load_graph rng ~topology ~input with
    | Error (`Msg m) -> `Error (false, m)
    | Ok g ->
      let open Fn_graph in
      let n = Graph.num_nodes g in
      if n > 2048 then `Error (false, "connectivity is O(n * flow * m); use <= 2048 nodes")
      else begin
        Printf.printf "edge connectivity: %d (min degree %d)\n"
          (Maxflow.edge_connectivity g) (Graph.min_degree g);
        if n >= 2 then begin
          let s = 0 and t = n - 1 in
          Printf.printf "node %d <-> node %d: %d edge-disjoint, %d vertex-disjoint paths\n" s
            t (Maxflow.max_flow g ~src:s ~dst:t)
            (Maxflow.vertex_disjoint_paths g ~src:s ~dst:t)
        end;
        `Ok ()
      end
  in
  let term = Term.(ret (const run $ seed_arg $ topology_opt_arg $ input_arg)) in
  Cmd.v (Cmd.info "connectivity" ~doc:"Exact edge connectivity and Menger path counts") term

(* ---- report ---- *)

let report_cmd =
  let fault_p =
    let doc = "Random node-fault probability." in
    Arg.(value & opt float 0.1 & info [ "fault-p" ] ~docv:"P" ~doc)
  in
  let run seed topology input fault_p =
    let rng = rng_of_seed seed in
    match Result.bind (check_fault_p fault_p) (fun () -> load_graph rng ~topology ~input) with
    | Error (`Msg m) -> `Error (false, m)
    | Ok g ->
      let faults = Fn_faults.Random_faults.nodes_iid rng g fault_p in
      let survivors = Fn_faults.Fault_set.alive_count faults in
      if survivors < 2 then
        `Error (false, Printf.sprintf "report needs at least 2 surviving nodes, got %d" survivors)
      else begin
        let report = Faultnet.Scenario.analyze ~rng g ~faults in
        print_endline (Faultnet.Scenario.to_string report);
        `Ok ()
      end
  in
  let term = Term.(ret (const run $ seed_arg $ topology_opt_arg $ input_arg $ fault_p)) in
  Cmd.v
    (Cmd.info "report" ~doc:"Full resilience report: connectivity, expansion, emulation, routing")
    term

let () =
  let doc = "Fault-tolerant network expansion toolkit (SPAA 2004 reproduction)" in
  let man =
    [
      `S Manpage.s_see_also;
      `P "$(b,bin/experiments.exe) runs the E1-E14 paper-validation experiments.";
      `P "$(b,bench/main.exe) runs and gates the micro-benchmarks.";
      `P "$(b,bin/faultnetd.exe) serves online expansion certificates on stdin/stdout.";
    ]
  in
  let info = Cmd.info "faultnet" ~version:"1.0.0" ~doc ~man in
  let group =
    Cmd.group info
      [
        gen_cmd; expansion_cmd; prune_cmd; span_cmd; percolate_cmd; attack_cmd; route_cmd; report_cmd; connectivity_cmd;
        metrics_cmd;
      ]
  in
  exit (Cmd.eval group)
