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

(* Sampling metadata comes from the view and the mask, not from an
   O(n) pass: with no alive mask a source is drawn as [Rng.int rng total]
   directly, and with one the r-th member is found by {!Bitset.select},
   which skips whole words by popcount — the same sources as indexing
   the mask's member array, without building it (8 MB at 10^6 nodes). *)
let alive_count ?alive view =
  match alive with Some m -> Bitset.cardinal m | None -> Gview.num_nodes view

let pick_source ?alive rng total =
  let r = Rng.int rng total in
  match alive with Some m -> Bitset.select m r | None -> r

(* A ball candidate: the first [size] nodes a BFS from [src] collects,
   and its expansion.  The set itself is built only for a winner. *)
type ball = { src : int; size : int; value : float }

(* One ball sample: restart [grower] at [src], grow it through
   geometrically doubled size targets and read each ball's value off
   the grower's boundary counts — one traversal, no set built, no
   boundary re-scan.  Candidates come largest first.  Every one is a
   proper cut: the source is alive, so size >= 1, and size <= target
   <= total/2.  The values are the floats Cut.value_of gives the
   materialized ball: the same integer counts and the same division. *)
let sample_balls grower ~total objective src =
  Bfs.restart_ball grower src;
  let out = ref [] in
  let target = ref 2 in
  while !target <= total / 2 do
    Bfs.extend_ball grower !target;
    let size = Bfs.ball_size grower in
    let value =
      match objective with
      | Cut.Node -> float_of_int (Bfs.ball_node_boundary grower) /. float_of_int size
      | Cut.Edge ->
        float_of_int (Bfs.ball_edge_boundary grower) /. float_of_int (min size (total - size))
    in
    out := { src; size; value } :: !out;
    target := !target * 2
  done;
  !out

(* Per-sample candidate lists, in sample order.  The sources are drawn
   up front (growth never reads the rng), then one grower's arrays
   serve every sample. *)
let ball_candidates ?alive view objective rng samples =
  let total = alive_count ?alive view in
  if total < 2 then [||]
  else begin
    let srcs = Array.init samples (fun _ -> pick_source ?alive rng total) in
    let grower = Bfs.ball_grower ?alive view srcs.(0) in
    Array.map (sample_balls grower ~total objective) srcs
  end

(* Parallel sampling: every sample gets its own pre-split generator
   (sequential split, Par.trials) and grows its balls on a worker
   domain with its own grower, so the result is deterministic and
   independent of the domain count. *)
let ball_candidates_par ?obs ?alive view objective rng samples ~domains =
  let total = alive_count ?alive view in
  if total < 2 then [||]
  else
    Fn_parallel.Par.trials ?obs ~domains ~rng samples (fun r ->
        let src = pick_source ?alive r total in
        sample_balls (Bfs.ball_grower ?alive view src) ~total objective src)

(* Cut.better folded over candidates in list order: the first
   smallest value wins. *)
let best_ball balls =
  List.fold_left
    (fun best b ->
      match best with Some w when not (b.value < w.value) -> best | Some _ | None -> Some b)
    None balls

(* A winner's set: BFS order is deterministic, so regrowing from its
   source to its size rebuilds exactly the ball that was valued. *)
let ball_cut ?alive view objective b =
  { Cut.set = Bfs.ball_of_size ?alive view b.src b.size; value = b.value; objective }

(* The BFS-ball slice of the portfolio: one counted traversal per
   sample; candidates in sample order, each sample's largest first,
   and only the winner is built.  Above the cap this is the whole
   portfolio; the node count and degree bound both come from O(1) view
   metadata. *)
let ball_witness ?alive ?rng view objective =
  let rng = match rng with Some r -> r | None -> Rng.create 0xFA17 in
  ball_candidates ?alive view objective rng ball_samples
  |> Array.to_list |> List.concat |> best_ball
  |> Option.map (ball_cut ?alive view objective)

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

(* Alive nodes above which the portfolio is the ball slice alone: the
   Krylov basis holds up to 16 vectors of n floats, and the components
   pass and local search are O(n) each on top of it. *)
let spectral_node_cap = 500_000

let run_v ?(obs = Fn_obs.Sink.null) ?alive ?rng ?(domains = 1) ?(force_heuristic = false)
    view objective =
  let rng = match rng with Some r -> r | None -> Rng.create 0xFA17 in
  let total = alive_count ?alive view in
  if total < 2 then invalid_arg "Estimate.run: need at least 2 alive nodes";
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
    if total > spectral_node_cap then begin
      (* total > spectral_node_cap >= 4: a ball always fits in half *)
      let cut = Option.get (ball_witness ?alive ~rng view objective) in
      { value = cut.Cut.value; witness = cut.Cut.set; objective; exact = false; lower = None }
    end
    else
    (* Below the cap every slice runs on the CSR form: the graph itself
       on [Csr], the materialized twin (rows ascending, as in every
       Graph.t) on an implicit view.  Spectral sums, ball shells and
       local-search candidates then follow one neighbor order on both
       arms, so the result is the twin's bit for bit. *)
    let g = Gview.materialize view in
    let view = Gview.Csr g in
    match Components.smallest_members ?alive view with
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
      let sweep = Array.fold_left Cut.better sweeps.(0) sweeps in
      let per_sample =
        if domains <= 1 then ball_candidates ?alive view objective rng ball_samples
        else ball_candidates_par ~obs ?alive view objective rng ball_samples ~domains
      in
      (* the historical candidate order: the last sample's balls
         first, each sample's largest first *)
      let balls = Array.fold_left (fun acc bs -> bs @ acc) [] per_sample in
      let refined =
        if domains <= 1 then begin
          (* the sweep comes first, so a ball must be strictly smaller
             to win; only the winner is materialized *)
          let best =
            match best_ball balls with
            | Some b when b.value < sweep.Cut.value -> ball_cut ?alive view objective b
            | Some _ | None -> sweep
          in
          Local_search.improve ?alive ~max_passes:local_search_passes view best
        end
        else begin
          (* multi-start refinement: hill-climb the few best distinct
             starts in parallel; includes the overall best, so the
             refined value is never worse than the sequential start *)
          let balls = Array.of_list balls in
          let nsweeps = Array.length sweeps in
          let value i = if i < nsweeps then sweeps.(i).Cut.value else balls.(i - nsweeps).value in
          let idx = Array.init (nsweeps + Array.length balls) Fun.id in
          Array.sort
            (fun a b ->
              let c = Float.compare (value a) (value b) in
              if c <> 0 then c else Int.compare a b)
            idx;
          let starts =
            Array.init (min max_refine_starts (Array.length idx)) (fun i ->
                let k = idx.(i) in
                if k < nsweeps then sweeps.(k)
                else ball_cut ?alive view objective balls.(k - nsweeps))
          in
          Local_search.improve_many ~obs ?alive ~max_passes:local_search_passes ~domains view
            starts
        end
      in
      let lower =
        match objective with
        | Cut.Edge ->
          let phi_lb = Spectral.cheeger_lower spectral in
          Some (Spectral.conductance_to_edge_expansion_lb ?alive view phi_lb)
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

let run ?obs ?alive ?rng ?domains ?force_heuristic g =
  run_v ?obs ?alive ?rng ?domains ?force_heuristic (Gview.Csr g)
