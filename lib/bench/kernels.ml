(* One kernel per experiment (E1..E14) plus substrate ablations.
   Inputs are built once, lazily, outside the timed closures; sizes
   are the experiments' quick-mode sizes so the whole suite finishes
   in about a minute. *)

let experiments = "experiments"
let substrate = "kernels"
let ablations = "ablations"
let scale = "scale"
let online = "online"
let spectral = "spectral"

let rng0 = Fn_prng.Rng.create 0xBEC4
let fresh () = Fn_prng.Rng.copy rng0

(* ---- prebuilt inputs (lazy: --list / --filter force nothing) ---- *)

let expander256 = lazy (Fn_topology.Expander.random_regular (fresh ()) ~n:256 ~d:6)

let alpha256 =
  lazy
    (Fn_expansion.Estimate.run ~rng:(fresh ()) (Lazy.force expander256) Fn_expansion.Cut.Node)

let chain8 =
  lazy
    (Fn_topology.Chain_graph.build
       (Fn_topology.Expander.random_regular (fresh ()) ~n:32 ~d:4)
       ~k:8)

let chain_graph = lazy (Lazy.force chain8).Fn_topology.Chain_graph.graph
let chain_centers = lazy (Fn_topology.Chain_graph.chain_centers (Lazy.force chain8))
let mesh16 = lazy (fst (Fn_topology.Mesh.cube ~d:2 ~side:16))
let mesh8_geo = lazy (Fn_topology.Mesh.cube ~d:2 ~side:8)
let mesh32 = lazy (fst (Fn_topology.Mesh.cube ~d:2 ~side:32))
let mesh64 = lazy (fst (Fn_topology.Mesh.cube ~d:2 ~side:64))
let torus16 = lazy (fst (Fn_topology.Torus.cube ~d:2 ~side:16))

let alpha_e_torus16 =
  lazy (Fn_expansion.Estimate.run ~rng:(fresh ()) (Lazy.force torus16) Fn_expansion.Cut.Edge)

let debruijn6 = lazy (Fn_topology.Debruijn.graph 6)
let mesh4 = lazy (fst (Fn_topology.Mesh.cube ~d:2 ~side:4))
let mesh5 = lazy (fst (Fn_topology.Mesh.cube ~d:2 ~side:5))
let corner_terminals = [| 0; 4; 20; 24 |]

let perm_route =
  lazy
    (let rng = fresh () in
     let g = Lazy.force mesh16 in
     Fn_routing.Route.shortest g (Fn_routing.Demand.permutation rng g))

let survivor16 =
  lazy
    (let rng = fresh () in
     let g = Lazy.force mesh16 in
     let faults = Fn_faults.Random_faults.nodes_iid rng g 0.1 in
     Fn_graph.Components.largest_members ~alive:faults.Fn_faults.Fault_set.alive (Fn_graph.Gview.Csr g))

let small_fragment = lazy (Fn_graph.Bitset.create_full 16)

(* ---- registration ---- *)

let dep x () = ignore (Lazy.force x)
let deps ds () = List.iter (fun d -> d ()) ds

let kernels_rev = ref []

let reg ?items ~suite name prepare f =
  kernels_rev := Suite.kernel ?items ~prepare ~suite name f :: !kernels_rev

(* ---- one kernel per experiment ---- *)

let () =
  reg ~suite:experiments ~items:256 "e1_prune_adversarial"
    (deps [ dep expander256; dep alpha256 ])
    (fun () ->
      let rng = fresh () in
      let g = Lazy.force expander256 in
      let alpha = (Lazy.force alpha256).Fn_expansion.Estimate.value in
      let faults = Fn_faults.Adversary.ball_isolation rng g ~budget:24 in
      Faultnet.Prune.run ~rng g ~alive:faults.Fn_faults.Fault_set.alive ~alpha ~epsilon:0.5)

let () =
  reg ~suite:experiments ~items:256 "e2_chain_expansion" (dep chain_graph) (fun () ->
      Fn_expansion.Estimate.run ~rng:(fresh ()) (Lazy.force chain_graph) Fn_expansion.Cut.Node)

let () =
  reg ~suite:experiments "e3_chain_attack"
    (deps [ dep chain_graph; dep chain_centers ])
    (fun () ->
      let g = Lazy.force chain_graph in
      let centers = Lazy.force chain_centers in
      let faults = Fn_faults.Adversary.targets g ~targets:centers ~budget:(Array.length centers) in
      Fn_graph.Components.compute ~alive:faults.Fn_faults.Fault_set.alive (Fn_graph.Gview.Csr g))

let () =
  reg ~suite:experiments ~items:256 "e4_recursive_attack" (dep mesh16) (fun () ->
      Fn_faults.Adversary.recursive_cut ~rng:(fresh ()) (Lazy.force mesh16) ~epsilon:0.125)

let () =
  reg ~suite:experiments "e5_random_chain" (dep chain_graph) (fun () ->
      let rng = fresh () in
      let g = Lazy.force chain_graph in
      let faults = Fn_faults.Random_faults.nodes_iid rng g 0.05 in
      Fn_graph.Components.compute ~alive:faults.Fn_faults.Fault_set.alive (Fn_graph.Gview.Csr g))

let () =
  reg ~suite:experiments ~items:256 "e6_prune2_random"
    (deps [ dep torus16; dep alpha_e_torus16 ])
    (fun () ->
      let rng = fresh () in
      let g = Lazy.force torus16 in
      let alpha_e = (Lazy.force alpha_e_torus16).Fn_expansion.Estimate.value in
      let faults = Fn_faults.Random_faults.nodes_iid rng g 0.05 in
      Faultnet.Prune2.run ~rng g ~alive:faults.Fn_faults.Fault_set.alive ~alpha_e ~epsilon:0.125)

let () =
  reg ~suite:experiments "e7_mesh_span" (dep mesh8_geo) (fun () ->
      let rng = fresh () in
      let mesh8, geo8 = Lazy.force mesh8_geo in
      match Faultnet.Compact.random_compact rng mesh8 ~target_size:12 with
      | Some s -> Faultnet.Mesh_span.certify mesh8 geo8 s
      | None -> None)

let () =
  reg ~suite:experiments ~items:1024 "e8_percolation" (dep mesh32) (fun () ->
      Fn_percolation.Newman_ziff.bond_run (fresh ()) (Fn_graph.Gview.Csr (Lazy.force mesh32)))

let () =
  reg ~suite:experiments ~items:128 "e9_can_churn"
    (fun () -> ())
    (fun () ->
      let rng = fresh () in
      Fn_topology.Can.graph (Fn_topology.Can.build rng ~d:2 ~n:128))

let () =
  reg ~suite:experiments ~items:10 "e10_span_conjecture" (dep debruijn6) (fun () ->
      Faultnet.Span.sample (fresh ()) ~samples:10 (Lazy.force debruijn6))

let () =
  reg ~suite:experiments ~items:256 "e11_routing_sim"
    (deps [ dep mesh16; dep perm_route ])
    (fun () -> Fn_routing.Sim.run (Lazy.force mesh16) (Lazy.force perm_route))

let () =
  reg ~suite:experiments ~items:256 "e12_embedding"
    (deps [ dep mesh16; dep survivor16 ])
    (fun () -> Faultnet.Embedding.self_embed (Lazy.force mesh16) ~kept:(Lazy.force survivor16))

let () =
  reg ~suite:experiments "e13_multibutterfly"
    (fun () -> ())
    (fun () -> Fn_topology.Multibutterfly.build (fresh ()) ~k:5 ~multiplicity:2)

let () =
  reg ~suite:experiments ~items:256 "e14_transient_churn" (dep torus16) (fun () ->
      Fn_faults.Churn.simulate (fresh ()) (Lazy.force torus16) ~rate_fail:0.1 ~rate_repair:0.9
        ~horizon:10.0 ~snapshots:5)

(* ---- substrate kernels ---- *)

let () =
  reg ~suite:substrate ~items:4096 "bfs_mesh64" (dep mesh64) (fun () ->
      Fn_graph.Bfs.distances (Fn_graph.Gview.Csr (Lazy.force mesh64)) 0)

let () =
  reg ~suite:substrate ~items:4096 "components_mesh64" (dep mesh64) (fun () ->
      Fn_graph.Components.compute (Fn_graph.Gview.Csr (Lazy.force mesh64)))

let () =
  reg ~suite:substrate ~items:256 "spectral_torus16" (dep torus16) (fun () ->
      Fn_expansion.Spectral.lambda2 (Fn_graph.Gview.Csr (Lazy.force torus16)))

let () =
  reg ~suite:substrate ~items:16 "exact_expansion_4x4" (dep mesh4) (fun () ->
      Fn_expansion.Exact.node_expansion (Lazy.force mesh4))

let () =
  reg ~suite:substrate ~items:25 "steiner_exact_5x5" (dep mesh5) (fun () ->
      Fn_graph.Steiner.exact (Lazy.force mesh5) corner_terminals)

let () =
  reg ~suite:substrate ~items:25 "steiner_approx_5x5" (dep mesh5) (fun () ->
      Fn_graph.Steiner.approx (Lazy.force mesh5) corner_terminals)

let () =
  reg ~suite:substrate ~items:256 "random_regular_256_6"
    (fun () -> ())
    (fun () -> Fn_topology.Random_graphs.random_regular (fresh ()) 256 6)

(* the Estimate candidate access pattern: one resumable traversal
   grown through doubling sizes (each node visited once overall) *)
let () =
  reg ~suite:substrate ~items:4096 "ball_growth_mesh64" (dep mesh64) (fun () ->
      let g = Lazy.force mesh64 in
      let t = Fn_graph.Bfs.ball_grower (Fn_graph.Gview.Csr g) 0 in
      let k = ref 2 in
      let last = ref (Fn_graph.Bitset.create 1) in
      while !k <= 4096 do
        last := Fn_graph.Bfs.grow_ball t !k;
        k := !k * 2
      done;
      !last)

(* prefix sweep over a fixed deterministic score: isolates the sort +
   incremental boundary scan from the spectral solve *)
let sweep_score32 =
  lazy
    (let n = Fn_graph.Graph.num_nodes (Lazy.force mesh32) in
     Array.init n (fun i -> float_of_int ((i * 2654435761) land 0xFFFF)))

let () =
  reg ~suite:substrate ~items:1024 "sweep_score_mesh32"
    (deps [ dep mesh32; dep sweep_score32 ])
    (fun () ->
      Fn_expansion.Sweep.best_prefix (Fn_graph.Gview.Csr (Lazy.force mesh32))
        ~score:(Lazy.force sweep_score32) Fn_expansion.Cut.Edge)

(* the heuristic estimator end to end (sampling + sweeps + refinement) *)
let () =
  reg ~suite:substrate ~items:256 "estimate_heuristic_torus16" (dep torus16) (fun () ->
      Fn_expansion.Estimate.run ~force_heuristic:true ~rng:(fresh ()) (Lazy.force torus16)
        Fn_expansion.Cut.Edge)

(* one Local_search.improve call on the certify shape: a random
   6-regular expander on 512 nodes under a fixed 20% fault mask,
   refining a 128-node alive BFS ball for node expansion over the
   4 passes Estimate.run uses *)
let expander512_start =
  lazy
    (let rng = fresh () in
     let g = Fn_topology.Expander.random_regular rng ~n:512 ~d:6 in
     let alive = (Fn_faults.Random_faults.nodes_iid rng g 0.2).Fn_faults.Fault_set.alive in
     let src = Option.get (Fn_graph.Bitset.choose alive) in
     let view = Fn_graph.Gview.Csr g in
     let ball = Fn_graph.Bfs.ball_of_size ~alive view src 128 in
     (view, alive, Fn_expansion.Cut.make ~alive view Fn_expansion.Cut.Node ball))

let () =
  reg ~suite:substrate ~items:512 "local_search_expander512" (dep expander512_start)
    (fun () ->
      let view, alive, start = Lazy.force expander512_start in
      Fn_expansion.Local_search.improve ~alive ~max_passes:4 view start)

(* the Prune round loop (finder + scratch boundary accounting) on a
   faulty mesh with a fixed threshold *)
let mesh16_faults =
  lazy
    (let g = Lazy.force mesh16 in
     Fn_faults.Random_faults.nodes_iid (fresh ()) g 0.1)

let () =
  reg ~suite:substrate ~items:256 "prune_round_mesh16"
    (deps [ dep mesh16; dep mesh16_faults ])
    (fun () ->
      let faults = Lazy.force mesh16_faults in
      Faultnet.Prune.run ~rng:(fresh ()) (Lazy.force mesh16)
        ~alive:faults.Fn_faults.Fault_set.alive ~alpha:0.5 ~epsilon:0.5)

(* the full static-analysis pass over the repo's own sources: tokenise,
   build scope trees and run all rules on every .ml/.mli; tracks the
   analyzer's cost as the rule set and the tree grow.  Sources are read
   once in prepare so the timed region is pure analysis. *)
let lint_sources =
  lazy
    (match Fn_lint.Engine.collect [ "lib"; "bin"; "test"; "examples"; "bench" ] with
    | [] -> failwith "lint_repo: no sources found (run from the repo root)"
    | files ->
      List.map
        (fun p ->
          let mli_exists =
            if Filename.check_suffix p ".ml" then Some (Sys.file_exists (p ^ "i"))
            else None
          in
          (p, mli_exists, Fn_lint.Engine.read_file p))
        files)

let () =
  reg ~suite:substrate "lint_repo" (dep lint_sources) (fun () ->
      List.fold_left
        (fun acc (path, mli_exists, src) ->
          acc + List.length (Fn_lint.Engine.lint_string ?mli_exists ~path src))
        0 (Lazy.force lint_sources))

(* ---- scale: the implicit 10^7-node path ---- *)

(* a 2000 x 5000 implicit torus: exactly 10^7 nodes, max degree 4, no
   edge ever materialized — forcing the lazy costs a closure, nothing
   else.  These kernels pin the large-n path the materializing
   constructors cannot reach (their CSR alone would be ~320 MB). *)
let torus1e7 = lazy (Fn_topology.Implicit.torus [| 2000; 5000 |])

(* resumable ball growth doubling up to 2^20 nodes: the Estimate
   sampling pattern at n = 10^7.  Timed work includes the grower's
   O(n) state allocation — that is the real per-query cost. *)
let () =
  reg ~suite:scale ~items:(1 lsl 20) "bfs_ball_growth_torus1e7" (dep torus1e7) (fun () ->
      let view = Lazy.force torus1e7 in
      let t = Fn_graph.Bfs.ball_grower view ((1000 * 5000) + 2500) in
      let k = ref 2 in
      let last = ref (Fn_graph.Bitset.create 1) in
      while !k <= 1 lsl 20 do
        last := Fn_graph.Bfs.grow_ball t !k;
        k := !k * 2
      done;
      !last)

(* one Prune round end to end on the implicit torus: finder ball,
   scratch node-boundary certificate, cull accounting.  The degree
   bound feeding epsilon is O(1) view metadata, not a 10^7-offset
   scan. *)
let () =
  reg ~suite:scale ~items:4096 "prune_round_torus1e7" (dep torus1e7) (fun () ->
      let view = Lazy.force torus1e7 in
      let n = Fn_graph.Gview.num_nodes view in
      let alive = Fn_graph.Bitset.create_full n in
      let delta = Fn_graph.Gview.max_degree view in
      let epsilon = 1.0 /. (2.0 *. float_of_int delta) in
      let rounds = ref 0 in
      let finder ~alive view ~threshold =
        ignore threshold;
        if !rounds > 0 then None
        else begin
          incr rounds;
          Some (Fn_graph.Bfs.ball_of_size ~alive view 0 4096)
        end
      in
      Faultnet.Prune.run_v ~finder view ~alive ~alpha:2.0 ~epsilon)

(* ---- online: incremental certificates under streaming churn ---- *)

(* A 1000 x 1000 implicit torus and one long-lived engine over it.
   The event schedule is reversible (every faulted node is repaired
   within the run), so the engine returns to the all-alive steady
   state between runs and every run times identical work. *)
let torus1e6 = lazy (Fn_topology.Implicit.torus [| 1000; 1000 |])

let online_engine =
  lazy
    (Fn_online.Engine.create
       ~cfg:{ Fn_online.Engine.default_config with alpha = 1.0; epsilon = 0.5 }
       (Lazy.force torus1e6))

(* 64 pairwise-distant churn targets: spacing 7919 keeps their dirty
   regions disjoint, so per-event cost is the honest locality bound *)
let churn_targets = Array.init 64 (fun i -> 7919 * (i + 1))

let apply_or_die eng evs =
  match Fn_online.Engine.apply eng evs with
  | Ok _ -> ()
  | Error e -> failwith ("online kernel: " ^ Fn_faults.Churn.error_to_string e)

(* Streamed events through the maintained certificate: 4 fault/repair
   batch pairs of 64 events each (512 events), the cascade forced
   after every batch as a serving loop would.  The acceptance bar is
   items/sec here vs the from-scratch comparator below. *)
let () =
  reg ~suite:online ~items:512 "online_events_torus1e6" (dep online_engine) (fun () ->
      let eng = Lazy.force online_engine in
      for _ = 1 to 4 do
        let faults = Array.to_list (Array.map (fun v -> Fn_online.Event.Fault v) churn_targets) in
        apply_or_die eng faults;
        ignore (Fn_online.Engine.result eng);
        let repairs =
          Array.to_list (Array.map (fun v -> Fn_online.Event.Repair v) churn_targets)
        in
        apply_or_die eng repairs;
        ignore (Fn_online.Engine.result eng)
      done)

(* The from-scratch comparator: the same 64-fault batch answered by a
   full Cert.scratch cascade over all 10^6 nodes.  items = batch size,
   so items/sec is directly comparable with the kernel above. *)
let faulted_1e6 =
  lazy
    (let n = Fn_graph.Gview.num_nodes (Lazy.force torus1e6) in
     let alive = Fn_graph.Bitset.create_full n in
     Array.iter (fun v -> Fn_graph.Bitset.remove alive v) churn_targets;
     alive)

let () =
  reg ~suite:online ~items:64 "online_scratch_torus1e6"
    (deps [ dep torus1e6; dep faulted_1e6 ])
    (fun () ->
      Fn_online.Cert.scratch (Lazy.force torus1e6) ~alive:(Lazy.force faulted_1e6)
        ~alpha:1.0 ~epsilon:0.5)

(* Steady-state query latency: 256 mixed alive/certificate/alpha
   probes against the maintained state.  Prepare warms the alpha memo,
   so the timed region is the serving path, not the first spectral
   estimate. *)
let () =
  reg ~suite:online ~items:256 "online_query_latency"
    (fun () ->
      ignore (Lazy.force online_engine);
      ignore (Fn_online.Engine.alpha (Lazy.force online_engine)))
    (fun () ->
      let eng = Lazy.force online_engine in
      let acc = ref 0 in
      for i = 0 to 255 do
        let v = 1234 + (3137 * i) in
        if Fn_online.Engine.is_alive eng v then incr acc;
        if Fn_online.Engine.in_certificate eng v then incr acc;
        if i land 15 = 0 then ignore (Fn_online.Engine.alpha eng : float)
      done;
      !acc)

(* The alpha? estimate faultnetd recomputes for every state digest (each
   compaction and each --resume restore): Alpha_cache.reference on the
   10^6 implicit torus under a fixed seeded mask of 1,024 faults.  The
   survivors are above Estimate.spectral_node_cap, so the estimate is
   Estimate.ball_witness alone (8 BFS samples grown to half the
   survivor, sources drawn by rank from the mask). *)
let faulted1024_1e6 =
  lazy
    (let n = Fn_graph.Gview.num_nodes (Lazy.force torus1e6) in
     let alive = Fn_graph.Bitset.create_full n in
     Array.iter (Fn_graph.Bitset.remove alive) (Fn_prng.Rng.sample (fresh ()) n 1024);
     alive)

let () =
  reg ~suite:online "alpha_itorus1e6"
    (deps [ dep torus1e6; dep faulted1024_1e6 ])
    (fun () ->
      Fn_online.Alpha_cache.reference ~seed:1 (Lazy.force torus1e6)
        ~kept:(Lazy.force faulted1024_1e6))

(* ---- online: crash-only recovery and degraded serving ---- *)

(* Recovery replay vs snapshot restore on the 10^6 implicit torus.
   One recorded session — [recovery_pairs] fault/repair batch pairs
   over the 64 spaced churn targets plus a final unrepaired fault
   batch — journaled twice: verbatim (every trial replayed on
   recovery) and compacted (meta + one snapshot line, recovery is a
   single restore).  The two kernels then time the full cold path a
   restarting faultnetd pays: open journal, build engine, recover.
   The acceptance bar is the ratio: compaction must cut recovery by
   at least 5x (see BENCH_online.json).  Engine construction alone is
   ~1.2s on 10^6 nodes and both paths pay it, so the session is sized
   (~410k events) to make the replayed prefix, not the shared
   constant, the thing compaction deletes. *)
let recovery_pairs = 3200

let recovery_cfg =
  { Fn_online.Engine.default_config with Fn_online.Engine.alpha = 1.0; epsilon = 0.5 }

let recovery_meta = [ ("bench", Fn_obs.Jsonx.Str "recovery") ]

let recovery_batch b =
  let mk v = if b land 1 = 0 then Fn_online.Event.Fault v else Fn_online.Event.Repair v in
  Array.to_list (Array.map mk churn_targets)

let recovery_journal_or_die ~path =
  match Fn_resilience.Journal.open_ ~path ~meta:recovery_meta with
  | Ok j -> j
  | Error e -> failwith ("recovery kernel: " ^ e)

(* (uncompacted path, compacted path); built once, recovered per run *)
let recovery_journals =
  lazy
    (let batches = (2 * recovery_pairs) + 1 in
     let eng = Fn_online.Engine.create ~cfg:recovery_cfg (Lazy.force torus1e6) in
     let plain = Filename.temp_file "fn_bench_recovery" ".jsonl" in
     let compacted = Filename.temp_file "fn_bench_recovery_compact" ".jsonl" in
     let jp = recovery_journal_or_die ~path:plain in
     let jc = recovery_journal_or_die ~path:compacted in
     for b = 0 to batches - 1 do
       let evs = recovery_batch b in
       apply_or_die eng evs;
       let json = Fn_online.Event.batch_to_json evs in
       Fn_resilience.Journal.record_trial jp ~scope:Fn_online.Server.scope ~index:b json;
       Fn_resilience.Journal.record_trial jc ~scope:Fn_online.Server.scope ~index:b json
     done;
     (match
        Fn_resilience.Journal.compact jc ~scope:Fn_online.Server.scope ~upto:batches
          ~snapshot:(Fn_online.Engine.encode_state eng)
      with
     | Ok () -> ()
     | Error e -> failwith ("recovery kernel: compact: " ^ e));
     Fn_resilience.Journal.close jp;
     Fn_resilience.Journal.close jc;
     (plain, compacted))

let recover_or_die ~path =
  let j = recovery_journal_or_die ~path in
  Fun.protect
    ~finally:(fun () -> Fn_resilience.Journal.close j)
    (fun () ->
      let eng = Fn_online.Engine.create ~cfg:recovery_cfg (Lazy.force torus1e6) in
      match Fn_online.Server.recover j eng with
      | Ok next -> (next, Fn_online.Engine.state_digest eng)
      | Error e -> failwith ("recovery kernel: recover: " ^ e))

let () =
  reg ~suite:online
    ~items:(((2 * recovery_pairs) + 1) * Array.length churn_targets)
    "recovery_replay_torus1e6"
    (deps [ dep torus1e6; dep recovery_journals ])
    (fun () -> recover_or_die ~path:(fst (Lazy.force recovery_journals)))

let () =
  reg ~suite:online ~items:(Array.length churn_targets) "recovery_restore_torus1e6"
    (deps [ dep torus1e6; dep recovery_journals ])
    (fun () -> recover_or_die ~path:(snd (Lazy.force recovery_journals)))

(* Query latency in degraded mode: a max_dirty_frac low enough that
   the 64-target fault batch sheds, so the engine serves stale
   stamped answers from the pinned pre-batch cascade.  Same probe mix
   as online_query_latency — the pair quantifies what shedding buys
   on the serving path.  Queries never trigger the catch-up rebuild
   (only batches, recompute and audits do), so the engine stays
   degraded across runs. *)
let degraded_engine =
  lazy
    (let eng =
       Fn_online.Engine.create
         ~cfg:{ recovery_cfg with Fn_online.Engine.max_dirty_frac = 1e-4 }
         (Lazy.force torus1e6)
     in
     apply_or_die eng
       (Array.to_list (Array.map (fun v -> Fn_online.Event.Fault v) churn_targets));
     if not (Fn_online.Engine.degraded eng) then
       failwith "degraded kernel: batch did not shed";
     ignore (Fn_online.Engine.alpha eng : float);
     eng)

let () =
  reg ~suite:online ~items:256 "degraded_query_latency" (dep degraded_engine) (fun () ->
      let eng = Lazy.force degraded_engine in
      let acc = ref 0 in
      for i = 0 to 255 do
        let v = 1234 + (3137 * i) in
        if Fn_online.Engine.is_alive eng v then incr acc;
        if Fn_online.Engine.in_certificate eng v then incr acc;
        if i land 15 = 0 then ignore (Fn_online.Engine.alpha eng : float)
      done;
      !acc)

(* ---- ablations ---- *)

(* the degenerate-eigenspace fix: a single Fiedler sweep vs the
   rotated-pair portfolio (see Spectral.solve) *)
let () =
  reg ~suite:ablations ~items:256 "sweep_single_fiedler" (dep mesh16) (fun () ->
      let g = Lazy.force mesh16 in
      let r = Fn_expansion.Spectral.lambda2 (Fn_graph.Gview.Csr g) in
      Fn_expansion.Sweep.best_prefix (Fn_graph.Gview.Csr g) ~score:r.Fn_expansion.Spectral.fiedler
        Fn_expansion.Cut.Edge)

let () =
  reg ~suite:ablations ~items:256 "sweep_rotated_pair" (dep mesh16) (fun () ->
      let g = Lazy.force mesh16 in
      (* the production portfolio path: one fused solve for the
         Fiedler pair *)
      let spectral, f2 = Fn_expansion.Spectral.solve (Fn_graph.Gview.Csr g) in
      let f1 = spectral.Fn_expansion.Spectral.fiedler in
      let rot op = Array.init (Array.length f1) (fun i -> op f1.(i) f2.(i)) in
      List.fold_left Fn_expansion.Cut.better
        (Fn_expansion.Sweep.best_prefix (Fn_graph.Gview.Csr g) ~score:f1 Fn_expansion.Cut.Edge)
        (List.map
           (fun score -> Fn_expansion.Sweep.best_prefix (Fn_graph.Gview.Csr g) ~score Fn_expansion.Cut.Edge)
           [ f2; rot ( +. ); rot ( -. ) ]))

(* exact vs heuristic low-expansion finder on a fragment *)
let () =
  reg ~suite:ablations ~items:16 "finder_exact_16"
    (deps [ dep mesh4; dep small_fragment ])
    (fun () ->
      Faultnet.Low_expansion.exact Fn_expansion.Cut.Node ~alive:(Lazy.force small_fragment)
        (Fn_graph.Gview.Csr (Lazy.force mesh4)) ~threshold:0.4)

let () =
  reg ~suite:ablations ~items:16 "finder_portfolio_16"
    (deps [ dep mesh4; dep small_fragment ])
    (fun () ->
      Faultnet.Low_expansion.default Fn_expansion.Cut.Node ~alive:(Lazy.force small_fragment)
        (Fn_graph.Gview.Csr (Lazy.force mesh4)) ~threshold:0.4)

(* ---- spectral backends ---- *)

(* Near-disconnected survivor instance at n >= 1e5: two random
   6-regular expander halves joined by a handful of bridge edges,
   with an iid fault mask on top.  lambda2 collapses toward 0 while
   lambda3 stays at the expander gap, which is exactly the regime
   where Power's per-vector iteration count balloons and Lanczos
   wins. *)
let barbell1e5 =
  lazy
    (let rng = fresh () in
     let half = 51_200 in
     let a = Fn_topology.Expander.random_regular rng ~n:half ~d:6 in
     let b = Fn_topology.Expander.random_regular rng ~n:half ~d:6 in
     let edges = ref [] in
     Fn_graph.Graph.iter_edges a (fun u v -> edges := (u, v) :: !edges);
     Fn_graph.Graph.iter_edges b (fun u v -> edges := (u + half, v + half) :: !edges);
     for i = 0 to 7 do
       edges := ((i * 97), half + (i * 131)) :: !edges
     done;
     let g = Fn_graph.Graph.of_edges (2 * half) !edges in
     let faults = Fn_faults.Random_faults.nodes_iid rng g 0.02 in
     (g, faults.Fn_faults.Fault_set.alive))

(* The Power answer on the same masked instance, computed once
   un-timed: the Lanczos kernel asserts 1e-6 agreement against it, so
   every bench-smoke pass doubles as a large-n differential test. *)
let barbell1e5_power_ref =
  lazy
    (let g, alive = Lazy.force barbell1e5 in
     (Fn_expansion.Spectral.lambda2 ~alive ~method_:Fn_expansion.Spectral.Method.Power (Fn_graph.Gview.Csr g))
       .Fn_expansion.Spectral.lambda2)

let check_agreement name reference r =
  let got = r.Fn_expansion.Spectral.lambda2 in
  if abs_float (got -. reference) > 1e-6 then
    failwith
      (Printf.sprintf "%s: lambda2 %.9g disagrees with Power reference %.9g" name got
         reference);
  r

let () =
  reg ~suite:spectral ~items:102_400 "power_postfault_1e5" (dep barbell1e5) (fun () ->
      let g, alive = Lazy.force barbell1e5 in
      Fn_expansion.Spectral.lambda2 ~alive ~method_:Fn_expansion.Spectral.Method.Power (Fn_graph.Gview.Csr g))

let () =
  reg ~suite:spectral ~items:102_400 "lanczos_postfault_1e5"
    (deps [ dep barbell1e5; dep barbell1e5_power_ref ])
    (fun () ->
      let g, alive = Lazy.force barbell1e5 in
      check_agreement "lanczos_postfault_1e5"
        (Lazy.force barbell1e5_power_ref)
        (Fn_expansion.Spectral.lambda2 ~alive ~method_:Fn_expansion.Spectral.Method.Lanczos (Fn_graph.Gview.Csr g)))

(* Clean 100x100 torus (n = 1e4): the gap is ~2e-3, so Power burns its
   whole iteration budget while Lanczos converges inside one restart
   cycle — the comparative data point for locally flat topologies. *)
let torus100 = lazy (fst (Fn_topology.Torus.cube ~d:2 ~side:100))

let () =
  reg ~suite:spectral ~items:10_000 "lanczos_torus100" (dep torus100) (fun () ->
      Fn_expansion.Spectral.lambda2
        ~method_:Fn_expansion.Spectral.Method.Lanczos (Fn_graph.Gview.Csr (Lazy.force torus100)))

let all = List.rev !kernels_rev
