open Fn_graph
open Fn_prng

type t = {
  value : float;
  witness : Bitset.t;
  objective : Cut.objective;
  exact : bool;
  lower : float option;
}

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

(* The spectral slice's one-slot memo of its last solve.  The solve
   reads neither the rng nor the objective, so an estimate on the graph
   and mask of the previous solve (Prune's last finder call, then the
   survivor check) sweeps the stored vectors instead of solving again.
   The key is the materialized graph's identity, held weakly by the
   ephemeron so a dropped graph is never kept alive, plus the
   estimator's own copy of the mask, so a caller that later edits its
   mask in place (Prune's [Bitset.diff_into]) cannot make a stale entry
   match.  An entry is immutable and the slot is swapped atomically: a
   race between domains can lose an entry (a miss), never return a
   wrong one.  The vectors are only read by the sweeps and never leave
   this module. *)
type solve = { mask : Bitset.t option; solved : Spectral.result * float array }

let last_solve : (Graph.t, solve) Ephemeron.K1.t option Atomic.t = Atomic.make None

let same_mask a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Bitset.universe x = Bitset.universe y && Bitset.equal x y
  | Some _, None | None, Some _ -> false

(* The solve of [g] under [alive] and whether it was the memo's. *)
let memo_solve ~obs ?alive ~domains g =
  let hit =
    match Atomic.get last_solve with
    | None -> None
    | Some e -> (
      match Ephemeron.K1.query e g with
      | Some s when same_mask s.mask alive -> Some s.solved
      | Some _ | None -> None)
  in
  match hit with
  | Some solved -> (solved, true)
  | None ->
    let solved = Spectral.solve ~obs ?alive ~domains (Gview.Csr g) in
    let entry = { mask = Option.map Bitset.copy alive; solved } in
    Atomic.set last_solve (Some (Ephemeron.K1.make g entry));
    (solved, false)

(* The spectral slice of the portfolio: one fused solve (the lambda2
   Fiedler vector IS the first vector of the pair, so Spectral.solve
   shares the power iteration instead of running it twice), then sweeps
   of the pair and its two 45-degree rotations.  When the lambda2
   eigenspace is degenerate (square meshes, tori) the single
   power-iteration vector is an arbitrary rotation of the axis modes,
   and one of these four recovers a near-axis cut.  The sweeps are
   pure and merged lowest-index-first, so the parallel fan-out returns
   exactly the sequential map. *)
let spectral_sweeps ~obs ?alive ~domains g objective =
  let (spectral, f2), reused = memo_solve ~obs ?alive ~domains g in
  let view = Gview.Csr g in
  let f1 = spectral.Spectral.fiedler in
  let rotate a b op = Array.init (Array.length a) (fun i -> op a.(i) b.(i)) in
  let scores = [| f1; f2; rotate f1 f2 ( +. ); rotate f1 f2 ( -. ) |] in
  let sweeps =
    Fn_parallel.Par.map ~obs ~domains
      (fun score -> Sweep.best_prefix ?alive view ~score objective)
      scores
  in
  (spectral, sweeps, reused)

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
  (* the result, and whether its spectral slice swept a memoized solve *)
  let result, reused =
    if total > spectral_node_cap then begin
      (* total > spectral_node_cap >= 4: a ball always fits in half *)
      let cut = Option.get (ball_witness ?alive ~rng view objective) in
      ( { value = cut.Cut.value; witness = cut.Cut.set; objective; exact = false; lower = None },
        false )
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
    | Some w -> ({ value = 0.0; witness = w; objective; exact = true; lower = Some 0.0 }, false)
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
      ( { value = cut.Cut.value; witness = cut.Cut.set; objective; exact = true;
          lower = Some cut.Cut.value },
        false )
    end
    else begin
      let spectral, sweeps, reused = spectral_sweeps ~obs ?alive ~domains g objective in
      let sweep = Array.fold_left Cut.better sweeps.(0) sweeps in
      let per_sample = ball_candidates ?alive view objective rng ball_samples in
      (* the historical candidate order: the last sample's balls
         first, each sample's largest first *)
      let balls = Array.fold_left (fun acc bs -> bs @ acc) [] per_sample in
      (* the sweep comes first, so a ball must be strictly smaller to
         win; only the winner is materialized *)
      let best =
        match best_ball balls with
        | Some b when b.value < sweep.Cut.value -> ball_cut ?alive view objective b
        | Some _ | None -> sweep
      in
      let refined = Local_search.improve ?alive ~max_passes:local_search_passes view best in
      let lower =
        match objective with
        | Cut.Edge ->
          let phi_lb = Spectral.cheeger_lower spectral in
          Some (Spectral.conductance_to_edge_expansion_lb ?alive view phi_lb)
        | Cut.Node -> None
      in
      ( { value = refined.Cut.value; witness = refined.Cut.set; objective; exact = false;
          lower },
        reused )
    end
  in
  if on then
    Fn_obs.Span.exit sp
      ~fields:
        [
          ("value", Fn_obs.Sink.Float result.value);
          ("exact", Fn_obs.Sink.Bool result.exact);
          ("spectral_reused", Fn_obs.Sink.Bool reused);
        ];
  result

let run ?obs ?alive ?rng ?domains ?force_heuristic g =
  run_v ?obs ?alive ?rng ?domains ?force_heuristic (Gview.Csr g)
