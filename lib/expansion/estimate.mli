open Fn_graph
open Fn_prng

(** Combined expansion estimator: one portfolio over {!Gview.t}.

    Expansion is NP-hard to compute and even hard to approximate, so
    on graphs beyond {!Exact.max_nodes} we report the best *witness*
    found by a portfolio of heuristics — an upper bound on the true
    expansion, the direction that matters when checking the paper's
    lower-bound guarantees.  Up to {!spectral_node_cap} alive nodes
    {!run_v} runs, on either arm:

    - a components pass (a disconnected alive set has value 0);
    - {!Exact} on small unmasked graphs, with [exact] set;
    - the spectral sweep cut (with a Cheeger estimate in [lower]);
    - BFS balls of geometrically spaced sizes around 8 sampled nodes
      (optimal for meshes and other locally flat graphs), valued from
      the grower's boundary counts without re-scanning any ball;
    - first-improvement local search ({!Local_search.improve}, 4
      passes) refining the best candidate.

    Up to the cap an implicit view is materialized first
    ({!Gview.materialize}: all n nodes, O(n·Δ) cells, rows ascending),
    so the spectral sums, the last shell of a size-capped ball and the
    local-search candidate order follow one neighbor order on both
    arms and the result equals the materialized twin's bit for bit.
    Above the cap the portfolio
    is the {!ball_witness} cut alone for every [domains] ([exact]
    false, [lower] None), run on the view itself: no components pass
    runs, so a disconnected alive set gets its best ball's value, and
    the size-capped balls follow the view's neighbor order, so the
    twin's bits are not promised (the order rule in {!Gview}). *)

type t = {
  value : float;  (** best (smallest) expansion witnessed *)
  witness : Bitset.t;
  objective : Cut.objective;
  exact : bool;
  lower : float option;
      (** A lower bound on the exact branch and on a disconnected
          witness (both exact).  On the heuristic branch with the
          [Edge] objective it is the Cheeger estimate
          {!Spectral.cheeger_lower} turned into edge expansion, which
          bounds only a converged λ₂: when [Power] stops on its
          iteration budget with λ₂ overstated, it can exceed the true
          edge expansion, even this estimate's own [value].  [None] on
          the heuristic branch with [Node] and above
          {!spectral_node_cap}. *)
}

val spectral_node_cap : int
(** Alive nodes (500,000) above which {!run_v} is {!ball_witness}
    alone: the Krylov basis would hold up to 16 vectors of n floats,
    an implicit view would be materialized, and the components pass
    and local search are O(n) each. *)

val run_v :
  ?obs:Fn_obs.Sink.t ->
  ?alive:Bitset.t ->
  ?rng:Rng.t ->
  ?domains:int ->
  ?force_heuristic:bool ->
  Gview.t ->
  Cut.objective ->
  t
(** Defaults: [rng] seeded with 0xFA17, [domains] 1, [force_heuristic]
    false (use {!Exact} when feasible).  Requires >= 2 alive nodes.
    The result depends only on the topology (on the view itself above
    the cap), the mask, [rng]'s state and whether [domains > 1].  The
    spectral backend is chosen by {!Spectral.Method.select}: [Power]
    below {!Spectral.Method.power_max_nodes} alive nodes, keeping this
    path byte-identical to the pre-registry code.  An enabled [obs]
    sink wraps the whole estimate in an ["expansion.estimate"] span
    (with nested spectral spans from {!Spectral}); the default null
    sink costs nothing.

    Determinism contract: [domains = 1] (the default) runs the
    sequential portfolio and is byte-identical run to run.  With
    [domains > 1] the spectral matvec, the four sweeps and the
    candidate evaluation parallelize without changing results, while
    ball sampling switches to per-sample {!Rng.split} streams and
    refinement hill-climbs several starts — a deterministic variant
    whose output depends only on [domains > 1], not on the count. *)

val run :
  ?obs:Fn_obs.Sink.t ->
  ?alive:Bitset.t ->
  ?rng:Rng.t ->
  ?domains:int ->
  ?force_heuristic:bool ->
  Graph.t ->
  Cut.objective ->
  t
(** [run g] is [run_v (Gview.Csr g)]. *)

val ball_witness :
  ?alive:Bitset.t ->
  ?rng:Rng.t ->
  Gview.t ->
  Cut.objective ->
  Cut.t option
(** The BFS-ball slice of the portfolio: grow geometrically doubled
    balls (2, 4, 8, ... up to half the alive pool) around sampled
    sources and return the best cut witnessed, or [None] when no
    candidate exists (fewer than 4 alive nodes, so no size fits in
    half the pool).  Each sample is one traversal: a
    {!Bfs.ball_grower} counts the ball's node and edge boundaries as
    it grows, so every size's value is read in O(1) instead of
    re-scanning the ball, and only the winning ball is built as a
    set.  One grower's arrays serve all 8 samples, and a source is
    drawn by rank from the mask ({!Bitset.select}), so no O(n) pass
    or edge materialization happens beyond the traversals themselves.
    Sequential and byte-reproducible for a fixed [rng] (default seed
    0xFA17): the fold keeps the first smallest value over samples in
    order, each sample's balls largest first. *)
