open Fn_graph
open Fn_prng

type t = {
  value : float;
  witness : Bitset.t;
  objective : Cut.objective;
  exact : bool;
  lower : float option;
}

(* Cap on parallel local-search starts.  A constant (rather than the
   domain count) keeps heuristic results identical for every
   [domains > 1], so the contract is two-valued: the sequential
   algorithm at [domains = 1], one fixed parallel algorithm above. *)
let max_refine_starts = 4

(* BFS sources sampled per estimate, and the pass budget of the local
   search that refines the best candidate. *)
let ball_samples = 8
let local_search_passes = 4

(* Sampling metadata comes from the view, not from an O(n) pass: with
   no alive mask the pool is all of [0, n) and a source is drawn as
   [Rng.int rng total] directly — same rng stream as indexing the old
   identity array, without allocating or scanning n cells (on a
   10^7-node implicit torus that pass would dwarf the sampling). *)
let sample_pool ?alive view =
  match alive with
  | Some m ->
    let nodes = Bitset.to_array m in
    (Array.length nodes, Some nodes)
  | None -> (Gview.num_nodes view, None)

let pick_source pool rng total =
  match pool with
  | Some nodes -> nodes.(Rng.int rng total)
  | None -> Rng.int rng total

let disconnected_witness ?alive view =
  let comps = Components.compute ?alive view in
  if comps.Components.count <= 1 then None
  else begin
    (* smallest component is a zero-boundary witness *)
    let smallest = ref 0 in
    for id = 1 to comps.Components.count - 1 do
      if comps.Components.sizes.(id) < comps.Components.sizes.(!smallest) then smallest := id
    done;
    Some (Components.members comps !smallest)
  end

(* Candidate balls around one source for geometrically doubled size
   targets, largest first.  One resumable traversal serves the whole
   schedule (Bfs.grow_ball) instead of a fresh BFS per size. *)
let balls_from ?alive view ~total ~half src =
  let grower = Bfs.ball_grower ?alive view src in
  let out = ref [] in
  let size = ref 2 in
  while !size <= half do
    let ball = Bfs.grow_ball grower !size in
    let c = Bfs.ball_size grower in
    if c >= 1 && 2 * c <= total then out := ball :: !out;
    size := !size * 2
  done;
  !out

let ball_candidates ?alive view rng samples =
  let total, pool = sample_pool ?alive view in
  let out = ref [] in
  if total >= 2 then begin
    let half = total / 2 in
    for _ = 1 to samples do
      let src = pick_source pool rng total in
      out := balls_from ?alive view ~total ~half src @ !out
    done
  end;
  !out

(* Parallel sampling: every sample gets its own pre-split generator
   (sequential split, Par.trials) and grows its balls on a worker
   domain; the merge folds per-sample lists in index order, so the
   result is deterministic and independent of the domain count. *)
let ball_candidates_par ?obs ?alive view rng samples ~domains =
  let total, pool = sample_pool ?alive view in
  if total < 2 then []
  else begin
    let half = total / 2 in
    let per =
      Fn_parallel.Par.trials ?obs ~domains ~rng samples (fun r ->
          balls_from ?alive view ~total ~half (pick_source pool r total))
    in
    Array.fold_left (fun acc balls -> balls @ acc) [] per
  end

(* The BFS-ball slice of the portfolio: candidates evaluated through
   one generation-stamped scratch.  Local search stays CSR-only, so
   this (with {!spectral_witness}) is what large implicit topologies
   and their Prune finders use; the node count and degree bound both
   come from O(1) view metadata. *)
let ball_witness ?alive ?rng view objective =
  let rng = match rng with Some r -> r | None -> Rng.create 0xFA17 in
  let total, pool = sample_pool ?alive view in
  if total < 2 then None
  else begin
    let scratch = Boundary.Scratch.create (Gview.num_nodes view) in
    let half = total / 2 in
    let best = ref None in
    for _ = 1 to ball_samples do
      let src = pick_source pool rng total in
      List.iter
        (fun set ->
          (* balls_from guarantees 1 <= |set| <= total/2 within alive *)
          let size = Bitset.cardinal set in
          let value =
            match objective with
            | Cut.Node ->
              float_of_int (Boundary.Scratch.node_boundary_size scratch ?alive view set)
              /. float_of_int size
            | Cut.Edge ->
              float_of_int (Boundary.Scratch.edge_boundary_size scratch ?alive view set)
              /. float_of_int (min size (total - size))
          in
          let cut = { Cut.set; value; objective } in
          best := Some (match !best with Some b -> Cut.better b cut | None -> cut))
        (balls_from ?alive view ~total ~half src)
    done;
    !best
  end

(* The spectral slice of the portfolio: one fused solve (the lambda2
   Fiedler vector IS the first vector of the pair, so Spectral.solve
   shares the power iteration instead of running it twice), then sweeps
   of the pair and its two 45-degree rotations.  When the lambda2
   eigenspace is degenerate (square meshes, tori) the single
   power-iteration vector is an arbitrary rotation of the axis modes,
   and one of these four recovers a near-axis cut.  The sweeps are
   pure and merged lowest-index-first, so the parallel fan-out returns
   exactly the sequential map. *)
let spectral_sweeps ~obs ?alive ~domains view objective =
  let spectral, f2 = Spectral.solve ~obs ?alive ~domains view in
  let f1 = spectral.Spectral.fiedler in
  let rotate a b op = Array.init (Array.length a) (fun i -> op a.(i) b.(i)) in
  let scores = [| f1; f2; rotate f1 f2 ( +. ); rotate f1 f2 ( -. ) |] in
  let sweeps =
    Fn_parallel.Par.map ~obs ~domains
      (fun score -> Sweep.best_prefix ?alive view ~score objective)
      scores
  in
  (spectral, sweeps)

let best_sweep sweeps = Array.fold_left Cut.better sweeps.(0) sweeps

(* What gives implicit topologies a spectral path; without it large
   implicit views would have ball witnesses alone. *)
let spectral_witness ?(obs = Fn_obs.Sink.null) ?alive ?(domains = 1) view objective =
  let total =
    match alive with Some m -> Bitset.cardinal m | None -> Gview.num_nodes view
  in
  if total < 2 then None
  else Some (best_sweep (snd (spectral_sweeps ~obs ?alive ~domains view objective)))

let run ?(obs = Fn_obs.Sink.null) ?alive ?rng ?(domains = 1) ?(force_heuristic = false) g
    objective =
  let rng = match rng with Some r -> r | None -> Rng.create 0xFA17 in
  let total =
    match alive with Some m -> Bitset.cardinal m | None -> Graph.num_nodes g
  in
  if total < 2 then invalid_arg "Estimate.run: need at least 2 alive nodes";
  let view = Gview.Csr g in
  let on = Fn_obs.Sink.enabled obs in
  let sp =
    if on then
      Fn_obs.Span.enter obs "expansion.estimate"
        ~fields:
          [
            ( "objective",
              Fn_obs.Sink.Str (match objective with Cut.Node -> "node" | Cut.Edge -> "edge") );
            ("alive", Fn_obs.Sink.Int total);
          ]
    else Fn_obs.Span.null
  in
  let result =
    match disconnected_witness ?alive view with
    | Some w ->
      { value = 0.0; witness = w; objective; exact = true; lower = Some 0.0 }
    | None ->
    let use_exact =
      (not force_heuristic) && Option.is_none alive && Graph.num_nodes g <= Exact.max_nodes
    in
    if use_exact then begin
      let cut =
        match objective with
        | Cut.Node -> Exact.node_expansion g
        | Cut.Edge -> Exact.edge_expansion g
      in
      { value = cut.Cut.value; witness = cut.Cut.set; objective; exact = true;
        lower = Some cut.Cut.value }
    end
    else begin
      let spectral, sweeps = spectral_sweeps ~obs ?alive ~domains view objective in
      let sweep = best_sweep sweeps in
      let balls =
        if domains <= 1 then ball_candidates ?alive view rng ball_samples
        else ball_candidates_par ~obs ?alive view rng ball_samples ~domains
      in
      let candidates =
        (* pure evaluation: the parallel map matches the sequential
           filter_map element for element *)
        Fn_parallel.Par.map ~obs ~domains
          (fun set ->
            match Cut.value_of ?alive view objective set with
            | v -> Some { Cut.set; value = v; objective }
            | exception Invalid_argument _ -> None)
          (Array.of_list balls)
        |> Array.to_list
        |> List.filter_map Fun.id
      in
      let best = List.fold_left Cut.better sweep candidates in
      let refined =
        if domains <= 1 then Local_search.improve ?alive ~max_passes:local_search_passes g best
        else begin
          (* multi-start refinement: hill-climb the few best distinct
             starts in parallel; includes the overall best, so the
             refined value is never worse than the sequential start *)
          let pool = Array.of_list (Array.to_list sweeps @ candidates) in
          let idx = Array.init (Array.length pool) Fun.id in
          Array.sort
            (fun a b ->
              let c = Float.compare pool.(a).Cut.value pool.(b).Cut.value in
              if c <> 0 then c else Int.compare a b)
            idx;
          let starts =
            Array.init (min max_refine_starts (Array.length pool)) (fun i -> pool.(idx.(i)))
          in
          Local_search.improve_many ~obs ?alive ~max_passes:local_search_passes ~domains g
            starts
        end
      in
      let lower =
        match objective with
        | Cut.Edge ->
          let phi_lb = Spectral.cheeger_lower spectral in
          Some (Spectral.conductance_to_edge_expansion_lb ?alive g phi_lb)
        | Cut.Node -> None
      in
      { value = refined.Cut.value; witness = refined.Cut.set; objective; exact = false;
        lower }
    end
  in
  if on then
    Fn_obs.Span.exit sp
      ~fields:
        [
          ("value", Fn_obs.Sink.Float result.value);
          ("exact", Fn_obs.Sink.Bool result.exact);
        ];
  result
