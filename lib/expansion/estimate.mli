open Fn_graph
open Fn_prng

(** Combined expansion estimator.

    Expansion is NP-hard to compute and even hard to approximate, so
    on graphs beyond {!Exact.max_nodes} we report the best *witness*
    found by a portfolio of heuristics — an upper bound on the true
    expansion, the direction that matters when checking the paper's
    lower-bound guarantees:

    - the spectral sweep cut (with a Cheeger estimate in [lower]);
    - BFS balls of geometrically spaced sizes around 8 sampled nodes
      (optimal for meshes and other locally flat graphs), valued from
      the grower's boundary counts without re-scanning any ball;
    - first-improvement local search ({!Local_search.improve}, 4
      passes) refining the best candidate.

    On graphs small enough, {!Exact} is used and [exact] is set. *)

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
          the heuristic branch with [Node]. *)
}

val run :
  ?obs:Fn_obs.Sink.t ->
  ?alive:Bitset.t ->
  ?rng:Rng.t ->
  ?domains:int ->
  ?force_heuristic:bool ->
  Graph.t ->
  Cut.objective ->
  t
(** Defaults: [rng] seeded with 0xFA17, [domains] 1, [force_heuristic]
    false (use {!Exact} when feasible).  Requires >= 2 alive nodes.
    The result depends only on the graph, the mask, [rng]'s state and
    whether [domains > 1].  The spectral backend is chosen by
    {!Spectral.Method.select}: [Power] below
    {!Spectral.Method.power_max_nodes} alive nodes, keeping this
    path byte-identical to the pre-registry code.  A disconnected
    alive set yields value 0 with a component witness.  An enabled
    [obs] sink wraps the whole estimate in an ["expansion.estimate"]
    span (with nested spectral spans from {!Spectral}); the default
    null sink costs nothing.

    Determinism contract: [domains = 1] (the default) runs the
    sequential portfolio and is byte-identical run to run.  With
    [domains > 1] the spectral matvec, the four sweeps and the
    candidate evaluation parallelize without changing results, while
    ball sampling switches to per-sample {!Rng.split} streams and
    refinement hill-climbs several starts — a deterministic variant
    whose output depends only on [domains > 1], not on the count. *)

val ball_witness :
  ?alive:Bitset.t ->
  ?rng:Rng.t ->
  Gview.t ->
  Cut.objective ->
  Cut.t option
(** The BFS-ball slice of the portfolio on either {!Gview.t} arm: grow
    geometrically doubled balls (2, 4, 8, ... up to half the alive
    pool) around sampled sources and return the best cut witnessed,
    or [None] when no candidate exists (fewer than 4 alive nodes, so
    no size fits in half the pool).  Each sample is one traversal:
    a {!Bfs.ball_grower} counts the ball's node and edge boundaries
    as it grows, so every size's value is read in O(1) instead of
    re-scanning the ball, and only the winning ball is built as a
    set.  One grower's arrays serve all 8 samples.  This is the
    finder large implicit topologies use — the node count and the
    degree bound come from O(1) view metadata, no O(n) pass, no edge
    materialization; local search remains CSR-only.  Sequential and
    byte-reproducible for a fixed [rng] (default seed 0xFA17): the
    fold keeps the first smallest value over samples in order, each
    sample's balls largest first. *)

val spectral_witness :
  ?obs:Fn_obs.Sink.t ->
  ?alive:Bitset.t ->
  ?domains:int ->
  Gview.t ->
  Cut.objective ->
  Cut.t option
(** The spectral slice of the portfolio on either {!Gview.t} arm: one
    {!Spectral.solve} (backend chosen by {!Spectral.Method.select})
    plus the four rotated Fiedler sweeps, the same slice {!run} runs;
    returns the best sweep cut, or [None] with fewer than 2 alive
    nodes.
    This is what gives implicit topologies a spectral path — a matvec
    here costs one neighbor-closure call per alive node.
    Deterministic and bit-stable across [domains] like everything
    spectral. *)
