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
    Above the cap the portfolio is the {!ball_witness} cut alone
    ([exact] false, [lower] None), run on the view itself: no
    components pass runs, so a disconnected alive set gets its best
    ball's value, and the size-capped balls follow the view's neighbor
    order, so the twin's bits are not promised (the order rule in
    {!Gview}).

    {b The solve memo.}  The spectral slice keeps its last solve (the
    {!Spectral.result} and the second vector) in one slot.  The key is
    the physical identity of the CSR graph the slice runs on (on [Csr g]
    that is [g] itself) and a copy of the alive mask taken when the
    solve ran.  A later estimate on the same graph, with an equal mask
    ([Bitset.equal], and [None] matches only [None]), sweeps the stored
    vectors instead of solving again.  That is the paper's pipeline
    shape: Prune's last finder call, then the check of its survivor.
    Anything else misses and solves: another graph, even an equal
    one built separately; another mask, including the caller's own
    mask edited in place since the solve; and every implicit view below
    the cap, which is materialized again on each call.  The solve reads
    neither [rng] nor the objective, and {!Spectral.solve} depends only
    on the view, the mask and its parameters, so a hit returns the bits
    of a cold estimate.  The slot holds its graph weakly (an ephemeron),
    so it never keeps a dropped graph alive; while the graph lives, it
    keeps the last solve's two vectors of n floats.  Estimates running on
    several domains at once may overwrite each other's entry, which
    costs a miss, never a wrong answer.  A hit emits no
    ["spectral.solve"] span; the ["expansion.estimate"] exit span says
    [spectral_reused=true]. *)

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
    the cap), the mask and [rng]'s state, never on [domains].  The
    spectral backend is chosen by {!Spectral.Method.select}: [Power]
    below {!Spectral.Method.power_max_nodes} alive nodes, keeping this
    path byte-identical to the pre-registry code.  An enabled [obs]
    sink wraps the whole estimate in an ["expansion.estimate"] span
    (with nested spectral spans from {!Spectral}, none on a memo hit);
    its exit carries [value], [exact] and [spectral_reused].  The
    default null sink costs nothing.

    [domains] is a speed knob only: it sizes the spectral matvec's
    worker pool and the fan-out of the four sweeps, both bit-identical
    at every domain count, while the balls are drawn from [rng] in
    order and one {!Local_search.improve} refines the best candidate
    whatever the count. *)

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
