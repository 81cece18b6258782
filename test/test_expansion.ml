open Fn_graph
open Fn_expansion
open Testutil

let rng () = Fn_prng.Rng.create 31415

(* An equal graph built separately: the estimator's solve memo is keyed
   on the graph's identity, so a run on a copy always solves. *)
let copy g = Graph.of_edge_array (Graph.num_nodes g) (Graph.edges g)

(* [f sink] under a memory sink: its result, the number of
   spectral.solve spans it opened, and the spectral_reused field of the
   last expansion.estimate exit ([None] when there was none). *)
let traced f =
  let sink, events = Fn_obs.Sink.memory () in
  let r = f sink in
  let evs = events () in
  let solves =
    List.length
      (List.filter
         (fun (e : Fn_obs.Sink.event) ->
           match e.kind with Fn_obs.Sink.Enter -> e.name = "spectral.solve" | _ -> false)
         evs)
  in
  let reused =
    List.fold_left
      (fun acc (e : Fn_obs.Sink.event) ->
        match (e.kind, List.assoc_opt "spectral_reused" e.fields) with
        | Fn_obs.Sink.Exit, Some (Fn_obs.Sink.Bool b) when e.name = "expansion.estimate" -> Some b
        | _ -> acc)
      None evs
  in
  (r, solves, reused)

let test_exact_complete () =
  let c = Exact.node_expansion (Fn_topology.Basic.complete 8) in
  check_float "K8 node expansion" (Analytic.complete_node_exact 8) c.Cut.value;
  check_int "witness half" 4 (Bitset.cardinal c.Cut.set)

let test_exact_cycle () =
  let c = Exact.node_expansion (Fn_topology.Basic.cycle 10) in
  check_float "C10" (Analytic.cycle_node_exact 10) c.Cut.value

let test_exact_path () =
  let c = Exact.node_expansion (Fn_topology.Basic.path 9) in
  check_float "P9" (Analytic.path_node_exact 9) c.Cut.value

let test_exact_star () =
  (* removing the hub isolates leaves: best cut is floor(n/2) leaves
     with boundary {hub} *)
  let c = Exact.node_expansion (Fn_topology.Basic.star 9) in
  check_float "star" 0.25 c.Cut.value

let test_exact_barbell () =
  (* barbell bottleneck: one clique side, boundary is the single
     bridge endpoint *)
  let c = Exact.node_expansion (Fn_topology.Basic.barbell 5) in
  check_float "barbell" 0.2 c.Cut.value;
  let e = Exact.edge_expansion (Fn_topology.Basic.barbell 5) in
  check_float "barbell edge" 0.2 e.Cut.value

let test_exact_mesh_edge () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:4 in
  let e = Exact.edge_expansion g in
  check_float "4x4 mesh edge expansion" 0.5 e.Cut.value

let test_exact_hypercube_edge () =
  let g = Fn_topology.Hypercube.graph 3 in
  let e = Exact.edge_expansion g in
  check_float "Q3 edge expansion" (Analytic.hypercube_edge_exact 3) e.Cut.value

let test_exact_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  let c = Exact.node_expansion g in
  check_float "disconnected" 0.0 c.Cut.value

let test_exact_limits () =
  Alcotest.check_raises "too small" (Invalid_argument "Exact: need at least 2 nodes")
    (fun () -> ignore (Exact.node_expansion (Graph.empty 1)));
  Alcotest.check_raises "too large"
    (Invalid_argument "Exact: graph too large for exhaustive search") (fun () ->
      ignore (Exact.node_expansion (Fn_topology.Basic.cycle 30)))

let test_cut_make_and_better () =
  let g = Fn_topology.Basic.path 4 in
  let u = Bitset.of_list 4 [ 0 ] in
  let c = Cut.make (Gview.Csr g) Cut.Node u in
  check_float "value" 1.0 c.Cut.value;
  let u2 = Bitset.of_list 4 [ 0; 1 ] in
  let c2 = Cut.make (Gview.Csr g) Cut.Node u2 in
  check_float "better value" 0.5 (Cut.better c c2).Cut.value

let test_sweep_finds_mesh_cut () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:4 in
  let view = Gview.Csr g in
  let c = Sweep.best_prefix view ~score:(Spectral.lambda2 view).Spectral.fiedler Cut.Edge in
  check_float "sweep finds the optimal mesh cut" 0.5 c.Cut.value

let test_sweep_arity_checks () =
  let g = Fn_topology.Basic.path 4 in
  Alcotest.check_raises "score length"
    (Invalid_argument "Sweep.best_prefix: score length mismatch") (fun () ->
      ignore (Sweep.best_prefix (Gview.Csr g) ~score:[| 0.0 |] Cut.Node))

let test_local_search_never_worse () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:4 in
  (* start from a bad cut: scattered nodes *)
  let bad = Cut.make (Gview.Csr g) Cut.Node (Bitset.of_list 16 [ 0; 7; 10 ]) in
  let improved = Local_search.improve (Gview.Csr g) bad in
  check_bool "improved or equal" true (improved.Cut.value <= bad.Cut.value +. 1e-12)

(* The from-scratch move rule Local_search.improve must reproduce bit
   for bit: flip, re-evaluate the whole cut with Cut.value_of, keep the
   move when it beats the current value by more than 1e-12, otherwise
   flip back. *)
let reference_improve ?alive ~max_passes g cut =
  let is_alive v = match alive with None -> true | Some m -> Bitset.mem m v in
  let total = match alive with None -> Graph.num_nodes g | Some m -> Bitset.cardinal m in
  let u = Bitset.copy cut.Cut.set in
  let evaluate set =
    try Some (Cut.value_of ?alive (Gview.Csr g) cut.Cut.objective set) with Invalid_argument _ -> None
  in
  let current = ref cut.Cut.value in
  let improved_once = ref true in
  let passes = ref 0 in
  while !improved_once && !passes < max_passes do
    improved_once := false;
    incr passes;
    let candidates = ref [] in
    Bitset.iter
      (fun v ->
        candidates := v :: !candidates;
        Graph.iter_neighbors g v (fun w ->
            if is_alive w && not (Bitset.mem u w) then candidates := w :: !candidates))
      u;
    let seen = Bitset.create (Graph.num_nodes g) in
    List.iter
      (fun v ->
        if not (Bitset.mem seen v) then begin
          Bitset.add seen v;
          if is_alive v then begin
            let inside = Bitset.mem u v in
            let size = Bitset.cardinal u in
            let new_size = if inside then size - 1 else size + 1 in
            if new_size >= 1 && 2 * new_size <= total then begin
              Bitset.set u v (not inside);
              match evaluate u with
              | Some value when value < !current -. 1e-12 ->
                current := value;
                improved_once := true
              | _ -> Bitset.set u v inside
            end
          end
        end)
      !candidates
  done;
  { Cut.set = u; value = !current; objective = cut.Cut.objective }

let same_cut a b =
  Bitset.equal a.Cut.set b.Cut.set
  && Int64.equal (Int64.bits_of_float a.Cut.value) (Int64.bits_of_float b.Cut.value)

(* Q4, an 8x8 torus and a random 6-regular graph on 64 nodes, each
   node dead w.p. 1/4 (and once unmasked); starts are random sets that
   keep dead members, and BFS balls grown through dead nodes *)
let test_local_search_matches_reference () =
  let rng = Fn_prng.Rng.create 2718 in
  let graphs =
    [
      ("Q4", Fn_topology.Hypercube.graph 4);
      ("torus8x8", fst (Fn_topology.Torus.graph [| 8; 8 |]));
      ("rr64", Fn_topology.Expander.random_regular (Fn_prng.Rng.create 64) ~n:64 ~d:6);
    ]
  in
  let compared = ref 0 and with_dead = ref 0 in
  List.iter
    (fun (name, g) ->
      let n = Graph.num_nodes g in
      let mask = Bitset.create_full n in
      for v = 0 to n - 1 do
        if Fn_prng.Rng.unit_float rng < 0.25 then Bitset.remove mask v
      done;
      List.iter
        (fun alive ->
          let starts =
            List.init 6 (fun i ->
                let p = 0.1 +. (0.08 *. float_of_int i) in
                let s = Bitset.create n in
                for v = 0 to n - 1 do
                  if Fn_prng.Rng.unit_float rng < p then Bitset.add s v
                done;
                s)
            @ List.map (fun k -> Bfs.ball_of_size (Gview.Csr g) (Fn_prng.Rng.int rng n) k) [ 3; 6; 12 ]
          in
          List.iter
            (fun objective ->
              let cuts =
                List.filter_map
                  (fun s ->
                    match Cut.make ?alive (Gview.Csr g) objective s with
                    | c -> Some c
                    | exception Invalid_argument _ -> None)
                  starts
              in
              for max_passes = 1 to 4 do
                let label = Printf.sprintf "%s masked=%b passes=%d" name (alive <> None) max_passes in
                List.iter
                  (fun c ->
                    incr compared;
                    if alive <> None && not (Bitset.subset c.Cut.set mask) then incr with_dead;
                    check_bool (label ^ ": improve")
                      true
                      (same_cut (reference_improve ?alive ~max_passes g c)
                         (Local_search.improve ?alive ~max_passes (Gview.Csr g) c)))
                  cuts
              done)
            [ Cut.Node; Cut.Edge ])
        [ Some mask; None ])
    graphs;
  check_bool "enough comparisons" true (!compared >= 300);
  check_bool "starts with dead members" true (!with_dead >= 100)

let test_estimate_exact_small () =
  let est = Estimate.run (Fn_topology.Basic.cycle 12) Cut.Node in
  check_bool "exact flag" true est.Estimate.exact;
  check_float "C12 value" (Analytic.cycle_node_exact 12) est.Estimate.value

let test_estimate_disconnected () =
  let g = Graph.of_edges 5 [ (0, 1); (2, 3); (3, 4) ] in
  let est = Estimate.run g Cut.Node in
  check_float "zero" 0.0 est.Estimate.value;
  check_int "small component witness" 2 (Bitset.cardinal est.Estimate.witness)

let test_estimate_heuristic_on_larger () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:8 in
  let est = Estimate.run ~rng:(rng ()) g Cut.Edge in
  check_bool "not exact" false est.Estimate.exact;
  (* true edge expansion of the 8x8 mesh is 8/32 = 0.25.  The square
     mesh's lambda2 is doubly degenerate (row/column modes), so the
     sweep may return a staircase cut; require the portfolio to land
     within 60% of optimal, and never below it. *)
  check_bool "upper bound" true (est.Estimate.value >= 0.25 -. 1e-9);
  check_bool "within 1.6x of optimal" true (est.Estimate.value <= 0.25 *. 1.6 +. 1e-9);
  match est.Estimate.lower with
  | Some lb -> check_bool "lower bound below value" true (lb <= est.Estimate.value +. 1e-9)
  | None -> Alcotest.fail "edge objective should produce a lower bound"

let test_estimate_alive_mask () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:4 in
  (* keep only the left 2x4 half alive: a 2x4 mesh remains *)
  let alive = Bitset.of_list 16 [ 0; 1; 4; 5; 8; 9; 12; 13 ] in
  let est = Estimate.run ~alive g Cut.Edge in
  check_bool "value positive" true (est.Estimate.value > 0.0);
  check_bool "witness inside alive" true (Bitset.subset est.Estimate.witness alive)

let test_estimate_requires_two () =
  Alcotest.check_raises "singleton" (Invalid_argument "Estimate.run: need at least 2 alive nodes")
    (fun () -> ignore (Estimate.run (Graph.empty 1) Cut.Node))

(* Q4, K12 or the 4x4 torus with each node faulty with probability
   1/2: the survivors' minimum degree is below the host's (K12 with 6
   survivors: 5 against 11), and the bound must use the survivors'. *)
let gen_masked_instance =
  let open QCheck2.Gen in
  oneofl
    [
      Fn_topology.Hypercube.graph 4;
      Fn_topology.Basic.complete 12;
      fst (Fn_topology.Torus.graph [| 4; 4 |]);
    ]
  >>= fun g ->
  list_repeat (Graph.num_nodes g) bool >>= fun bits ->
  let alive = Bitset.create (Graph.num_nodes g) in
  List.iteri (fun v b -> if b then Bitset.add alive v) bits;
  return (g, Some alive)

let prop_spectral_lower_sound =
  prop "certified lower bound never exceeds exact edge expansion" ~count:100
    QCheck2.Gen.(
      oneof
        [
          map (fun g -> (g, None)) (Testutil.gen_connected_graph ~max_n:11 ());
          gen_masked_instance;
        ])
    (fun (g, alive) ->
      let survivors =
        match alive with None -> g | Some m -> (Subgraph.induce g m).Subgraph.graph
      in
      Graph.num_nodes survivors < 2
      ||
      let exact = (Exact.edge_expansion survivors).Cut.value in
      let est = Estimate.run ?alive ~force_heuristic:true ~rng:(rng ()) g Cut.Edge in
      match est.Estimate.lower with
      | None -> false
      | Some lb -> lb <= exact +. 1e-6)

let prop_heuristic_upper_bounds_exact =
  prop "heuristic value >= exact value" ~count:60
    (Testutil.gen_connected_graph ~max_n:12 ())
    (fun g ->
      let exact = (Exact.node_expansion g).Cut.value in
      let est = Estimate.run ~force_heuristic:true ~rng:(rng ()) g Cut.Node in
      est.Estimate.value >= exact -. 1e-9)

let prop_witness_is_valid_cut =
  prop "witness evaluates to the reported value" ~count:60
    (Testutil.gen_connected_graph ~max_n:12 ())
    (fun g ->
      let est = Estimate.run ~force_heuristic:true ~rng:(rng ()) g Cut.Edge in
      abs_float (Cut.value_of (Gview.Csr g) Cut.Edge est.Estimate.witness -. est.Estimate.value) < 1e-9)

let test_estimate_domains_one_is_default () =
  (* ~domains:1 must be the same sequential code path as the default *)
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:8 in
  let a = Estimate.run ~rng:(rng ()) g Cut.Edge in
  let b = Estimate.run ~rng:(rng ()) ~domains:1 (copy g) Cut.Edge in
  check_bool "value bits" true
    (Int64.equal (Int64.bits_of_float a.Estimate.value) (Int64.bits_of_float b.Estimate.value));
  check_bool "witness" true (Bitset.equal a.Estimate.witness b.Estimate.witness);
  check_bool "exact flag" true (a.Estimate.exact = b.Estimate.exact)

(* No result depends on the domain count: domains 2, 3 and 4 give the
   domains-1 value bits, witness, exact flag and lower bound.  On the
   masked 10x10 mesh multi-start refinement finds another cut, and the
   masked 40x40 torus (1,600 nodes) is large enough for the spectral
   matvec to run on the worker pool.  Each run gets its own copy of the
   graph, so none replays another's solve from the memo: each must
   open one spectral.solve of its own. *)
let test_estimate_domain_count_invariant () =
  let mrng = Fn_prng.Rng.create 577 in
  let largest g p =
    let m = Bitset.create_full (Graph.num_nodes g) in
    for v = 0 to Graph.num_nodes g - 1 do
      if Fn_prng.Rng.unit_float mrng < p then Bitset.remove m v
    done;
    Some (Components.largest_members ~alive:m (Gview.Csr g))
  in
  let mesh, _ = Fn_topology.Mesh.cube ~d:2 ~side:10 in
  let torus, _ = Fn_topology.Torus.cube ~d:2 ~side:40 in
  let bits x = Int64.bits_of_float x in
  let same_lower a b =
    match (a, b) with
    | Some x, Some y -> Int64.equal (bits x) (bits y)
    | None, None -> true
    | Some _, None | None, Some _ -> false
  in
  List.iter
    (fun (name, g, alive) ->
      List.iter
        (fun (oname, objective) ->
          let run domains =
            let e, solves, _ =
              traced (fun obs -> Estimate.run ~obs ?alive ~rng:(rng ()) ~domains (copy g) objective)
            in
            check_int (Printf.sprintf "%s, %s, domains %d: one solve" name oname domains) 1 solves;
            e
          in
          let base = run 1 in
          List.iter
            (fun domains ->
              let got = run domains in
              let label = Printf.sprintf "%s, %s, domains %d" name oname domains in
              check_bool (label ^ ": value bits") true
                (Int64.equal (bits base.Estimate.value) (bits got.Estimate.value));
              check_bool (label ^ ": witness") true
                (Bitset.equal base.Estimate.witness got.Estimate.witness);
              check_bool (label ^ ": exact flag") true
                (Bool.equal base.Estimate.exact got.Estimate.exact);
              check_bool (label ^ ": lower") true
                (same_lower base.Estimate.lower got.Estimate.lower))
            [ 2; 3; 4 ])
        [ ("node", Cut.Node); ("edge", Cut.Edge) ])
    [
      ("mesh 10x10", mesh, None);
      ("mesh 10x10 masked", mesh, largest mesh 0.1);
      ("torus 40x40 masked", torus, largest torus 0.05);
    ]

(* Estimate.run's heuristic branch as it was before counted growth,
   rebuilt from public pieces: the four rotated Fiedler sweeps, then
   every doubled ball of 8 samples materialized and evaluated with
   Cut.value_of (an Invalid_argument dropped the candidate), folded
   with Cut.better from the best sweep (last sample first, each
   sample largest first), then local search from the winner. *)
let reference_heuristic ?alive ~rng g objective =
  let view = Gview.Csr g in
  let spectral, f2 = Spectral.solve ?alive view in
  let f1 = spectral.Spectral.fiedler in
  let rotate op = Array.init (Array.length f1) (fun i -> op f1.(i) f2.(i)) in
  let sweeps =
    Array.map
      (fun score -> Sweep.best_prefix ?alive view ~score objective)
      [| f1; f2; rotate ( +. ); rotate ( -. ) |]
  in
  let sweep = Array.fold_left Cut.better sweeps.(0) sweeps in
  let total, pool =
    match alive with
    | Some m ->
      let nodes = Bitset.to_array m in
      (Array.length nodes, Some nodes)
    | None -> (Graph.num_nodes g, None)
  in
  let pick r =
    match pool with
    | Some nodes -> nodes.(Fn_prng.Rng.int r total)
    | None -> Fn_prng.Rng.int r total
  in
  let balls_from src =
    let grower = Bfs.ball_grower ?alive view src in
    let out = ref [] and size = ref 2 in
    while !size <= total / 2 do
      let ball = Bfs.grow_ball grower !size in
      let c = Bfs.ball_size grower in
      if c >= 1 && 2 * c <= total then out := ball :: !out;
      size := !size * 2
    done;
    !out
  in
  let balls =
    let out = ref [] in
    for _ = 1 to 8 do
      out := balls_from (pick rng) @ !out
    done;
    !out
  in
  let candidates =
    List.filter_map
      (fun set ->
        match Cut.value_of ?alive view objective set with
        | v -> Some { Cut.set; value = v; objective }
        | exception Invalid_argument _ -> None)
      balls
  in
  Local_search.improve ?alive ~max_passes:4 view (List.fold_left Cut.better sweep candidates)

(* The ball candidates now come from the grower's counts and only the
   winners are built; value and witness must not move, at domains 1 or
   3 alike.  Masks keep the largest component, so the heuristic branch
   runs (a disconnected mask short-cuts to 0).  Each run is on its own
   copy of the graph and opens one spectral.solve: a memo hit would
   compare the reference with a replayed solve. *)
let test_estimate_matches_rescan_candidates () =
  let mrng = Fn_prng.Rng.create 1618 in
  let largest g p =
    let m = Bitset.create_full (Graph.num_nodes g) in
    for v = 0 to Graph.num_nodes g - 1 do
      if Fn_prng.Rng.unit_float mrng < p then Bitset.remove m v
    done;
    Some (Components.largest_members ~alive:m (Gview.Csr g))
  in
  let mesh, _ = Fn_topology.Mesh.cube ~d:2 ~side:10 in
  let torus, _ = Fn_topology.Torus.cube ~d:2 ~side:8 in
  let expander = Fn_topology.Expander.random_regular (Fn_prng.Rng.create 3) ~n:64 ~d:6 in
  let cases =
    [
      ("mesh 10x10 masked", mesh, largest mesh 0.1);
      ("torus 8x8", torus, None);
      ("torus 8x8 masked", torus, largest torus 0.2);
      ("expander 64/6 masked", expander, largest expander 0.2);
    ]
  in
  List.iter
    (fun (name, g, alive) ->
      List.iter
        (fun (oname, objective) ->
          List.iter
            (fun domains ->
              for seed = 1 to 3 do
                let label = Printf.sprintf "%s, %s, domains %d, seed %d" name oname domains seed in
                let expect = reference_heuristic ?alive ~rng:(Fn_prng.Rng.create seed) g objective in
                let got, solves, _ =
                  traced (fun obs ->
                      Estimate.run ~obs ?alive ~rng:(Fn_prng.Rng.create seed) ~domains
                        ~force_heuristic:true (copy g) objective)
                in
                check_int (label ^ ": one solve") 1 solves;
                check_bool (label ^ ": heuristic branch") false got.Estimate.exact;
                check_bool (label ^ ": value and witness") true
                  (same_cut expect
                     { Cut.set = got.Estimate.witness; value = got.Estimate.value; objective })
              done)
            [ 1; 3 ])
        [ ("node", Cut.Node); ("edge", Cut.Edge) ])
    cases

(* ---- the spectral slice's solve memo ---- *)

let same_estimate label (a : Estimate.t) (b : Estimate.t) =
  let bits x = Int64.bits_of_float x in
  check_bool (label ^ ": value bits") true
    (Int64.equal (bits a.Estimate.value) (bits b.Estimate.value));
  check_bool (label ^ ": witness") true (Bitset.equal a.Estimate.witness b.Estimate.witness);
  check_bool (label ^ ": lower") true
    (Option.equal (fun x y -> Int64.equal (bits x) (bits y)) a.Estimate.lower b.Estimate.lower)

let torus12 () = fst (Fn_topology.Torus.cube ~d:2 ~side:12)
let mesh12 () = fst (Fn_topology.Mesh.cube ~d:2 ~side:12)

(* All 144 nodes but node 0: connected on the 12x12 torus and mesh
   alike, so the estimator reaches its spectral slice on both. *)
let all_but_0 () =
  let m = Bitset.create_full 144 in
  Bitset.remove m 0;
  m

(* A repeat on the same graph with an equal mask (a separate copy of
   it) sweeps the stored solve: it opens no spectral.solve, says
   spectral_reused=true, and has the bits of a cold estimate on a
   physically distinct copy of the graph.  The warm-up runs the other
   objective with another rng, since the solve reads neither. *)
let test_memo_hit_equals_cold () =
  let g = torus12 () in
  List.iter
    (fun (mname, alive) ->
      List.iter
        (fun (oname, objective, other) ->
          let label = Printf.sprintf "%s, %s" mname oname in
          let _, solves, reused = traced (fun obs -> Estimate.run ~obs ?alive g other) in
          check_int (label ^ ": warm-up solves") 1 solves;
          check_bool (label ^ ": warm-up not reused") true (reused = Some false);
          let hit, solves, reused =
            traced (fun obs ->
                Estimate.run ~obs ?alive:(Option.map Bitset.copy alive) ~rng:(rng ()) g objective)
          in
          check_int (label ^ ": hit opens no solve") 0 solves;
          check_bool (label ^ ": hit reused") true (reused = Some true);
          let cold, solves, reused =
            traced (fun obs -> Estimate.run ~obs ?alive ~rng:(rng ()) (copy g) objective)
          in
          check_int (label ^ ": cold copy solves") 1 solves;
          check_bool (label ^ ": cold not reused") true (reused = Some false);
          same_estimate label hit cold)
        [ ("node", Cut.Node, Cut.Edge); ("edge", Cut.Edge, Cut.Node) ])
    [ ("unmasked", None); ("masked", Some (all_but_0 ())) ]

(* Prune edits its mask in place ([Bitset.diff_into]) between finder
   calls.  The memo keys on its own copy of the mask, so the estimate
   after such an edit solves again and equals a cold estimate. *)
let test_memo_mask_edited_in_place () =
  let g = torus12 () in
  let alive = all_but_0 () in
  let _, solves, _ = traced (fun obs -> Estimate.run ~obs ~alive g Cut.Node) in
  check_int "first estimate solves" 1 solves;
  let culled = Bitset.create 144 in
  Bitset.add culled 1;
  Bitset.add culled 2;
  Bitset.diff_into alive culled;
  let after, solves, reused = traced (fun obs -> Estimate.run ~obs ~alive g Cut.Node) in
  check_int "edited mask solves again" 1 solves;
  check_bool "edited mask not reused" true (reused = Some false);
  let cold = Estimate.run ~alive:(Bitset.copy alive) (copy g) Cut.Node in
  same_estimate "edited mask" after cold

(* The graph is part of the key: an equal mask on another graph of the
   same size (a mesh after a torus) misses, and gets the mesh's own
   answer. *)
let test_memo_other_graph_misses () =
  let torus = torus12 () and mesh = mesh12 () in
  List.iter
    (fun (mname, alive) ->
      let _, solves, _ = traced (fun obs -> Estimate.run ~obs ?alive torus Cut.Edge) in
      check_int (mname ^ ": torus solves") 1 solves;
      let got, solves, reused =
        traced (fun obs -> Estimate.run ~obs ?alive:(Option.map Bitset.copy alive) mesh Cut.Edge)
      in
      check_int (mname ^ ": mesh solves") 1 solves;
      check_bool (mname ^ ": mesh not reused") true (reused = Some false);
      same_estimate (mname ^ ": mesh") got (Estimate.run ?alive (copy mesh) Cut.Edge))
    [ ("unmasked", None); ("masked", Some (all_but_0 ())) ]

(* Two domains estimate interleaved (graph, mask) pairs through the one
   slot; each may overwrite the other's entry.  The two graphs have the
   same size and the masks are equal, so only the graph key tells the
   entries apart.  Every answer equals the sequential cold estimate of
   its pair. *)
let test_memo_two_domains () =
  let torus = torus12 () and mesh = mesh12 () in
  let mask = all_but_0 () in
  let pairs =
    [|
      (torus, None, Cut.Node);
      (mesh, None, Cut.Node);
      (torus, Some mask, Cut.Edge);
      (mesh, Some mask, Cut.Edge);
    |]
  in
  let expected =
    Array.map (fun (g, alive, objective) -> Estimate.run ?alive (copy g) objective) pairs
  in
  let schedule order =
    Domain.spawn (fun () ->
        List.map
          (fun i ->
            let g, alive, objective = pairs.(i) in
            (i, Estimate.run ?alive g objective))
          order)
  in
  let steps = List.init 24 Fun.id in
  let a = schedule (List.map (fun s -> s mod 4) steps) in
  let b = schedule (List.map (fun s -> (s / 2) mod 4) steps) in
  List.iter
    (fun (who, d) ->
      List.iteri
        (fun step (i, got) ->
          same_estimate (Printf.sprintf "domain %s, step %d, pair %d" who step i) got expected.(i))
        (Domain.join d))
    [ ("a", a); ("b", b) ]

let prop_analytic_formulas_guard =
  prop "analytic guards reject bad input" (QCheck2.Gen.int_range (-3) 1) (fun n ->
      (try
         ignore (Analytic.complete_node_exact n);
         false
       with Invalid_argument _ -> true)
      && (try
            ignore (Analytic.cycle_node_exact n);
            false
          with Invalid_argument _ -> true))

let test_exact_size_limits () =
  check_int "max nodes" 22 Exact.max_nodes;
  let path n = Fn_topology.Basic.path n in
  ignore (Exact.node_expansion (path Exact.max_nodes));
  Alcotest.check_raises "one past the limit"
    (Invalid_argument "Exact: graph too large for exhaustive search") (fun () ->
      ignore (Exact.node_expansion (path (Exact.max_nodes + 1))))

let () =
  Alcotest.run "expansion"
    [
      ( "exact",
        [
          case "complete" test_exact_complete;
          case "cycle" test_exact_cycle;
          case "path" test_exact_path;
          case "star" test_exact_star;
          case "barbell" test_exact_barbell;
          case "mesh edge" test_exact_mesh_edge;
          case "hypercube edge" test_exact_hypercube_edge;
          case "disconnected" test_exact_disconnected;
          case "limits" test_exact_limits;
        ] );
      ( "heuristics",
        [
          case "cut make/better" test_cut_make_and_better;
          case "sweep mesh cut" test_sweep_finds_mesh_cut;
          case "sweep arity" test_sweep_arity_checks;
          case "local search monotone" test_local_search_never_worse;
          case "local search matches reference" test_local_search_matches_reference;
          case "estimate exact small" test_estimate_exact_small;
          case "estimate disconnected" test_estimate_disconnected;
          case "estimate mesh 8x8" test_estimate_heuristic_on_larger;
          case "estimate alive mask" test_estimate_alive_mask;
          case "estimate needs 2 nodes" test_estimate_requires_two;
          case "estimate domains=1 is default" test_estimate_domains_one_is_default;
          case "estimate = re-scan candidates reference" test_estimate_matches_rescan_candidates;
          case "estimate parallel domain-count invariant" test_estimate_domain_count_invariant;
          case "exact size limits" test_exact_size_limits;
        ] );
      ( "solve memo",
        [
          case "hit equals a cold estimate" test_memo_hit_equals_cold;
          case "mask edited in place misses" test_memo_mask_edited_in_place;
          case "other graph misses" test_memo_other_graph_misses;
          case "two domains interleaved" test_memo_two_domains;
        ] );
      ( "properties",
        [
          prop_heuristic_upper_bounds_exact;
          prop_witness_is_valid_cut;
          prop_analytic_formulas_guard;
          prop_spectral_lower_sound;
        ]
      );
    ]
