open Fn_graph

(** Spectral machinery: the algebraic connectivity of the normalized
    Laplacian and the Fiedler embedding that drives sweep cuts.

    For a connected graph, the normalized Laplacian
    L = I - D^{-1/2} A D^{-1/2} has eigenvalues
    0 = λ₁ < λ₂ <= ... <= 2, and the Cheeger inequality sandwiches
    the conductance φ:  λ₂/2 <= φ <= sqrt(2 λ₂).  For a d-regular
    graph, edge expansion = φ·d on balanced cuts, giving cheap
    two-sided bounds that our tests check against {!Exact}.

    Every entry point takes a {!Gview.t} and is a front for one of two
    backends over the same shared operator and matvec
    ({!Spectral_op}):

    - {!Method.Power} — the historical fused power iteration, kept
      bit-exact; the reference that Lanczos is differential-tested
      against, and the default below {!Method.power_max_nodes} alive
      nodes.
    - {!Method.Lanczos} — thick-restart Lanczos with selective
      (DGKS-gated) reorthogonalization: both bottom eigenpairs from
      one Krylov basis, converging in O(1/sqrt(gap)) operator
      applications where power iteration needs O(1/gap).  This is the
      method that survives the near-disconnected masks {!Prune}
      manufactures, and the default at and above
      {!Method.power_max_nodes} alive nodes.

    Both methods are deterministic (the only "randomness" is a fixed
    cosine start — no {!Fn_prng} state is drawn) and bit-stable
    across [?domains]. *)

(** The two spectral backends and the size policy that picks one when
    [?method_] is omitted. *)
module Method : sig
  type t = Power | Lanczos

  val to_string : t -> string

  val power_max_nodes : int
  (** {!select} picks [Power] strictly below this alive-node count
      (50_000), which keeps every default experiment byte-identical
      to the pre-registry code. *)

  val select : n_alive:int -> t
  (** The backend used when [?method_] is omitted: [Power] below
      {!power_max_nodes} alive nodes, [Lanczos] from there on. *)
end

type result = {
  lambda2 : float;  (** algebraic connectivity of the normalized Laplacian *)
  fiedler : float array;  (** the embedding x = D^{-1/2} y₂, zero for dead nodes *)
  iterations : int;
      (** operator applications consumed: power-iteration steps for
          [Power], total matvecs for [Lanczos] *)
  converged : bool;
      (** whether the stopping test, not the budget, ended the solve:
          for [Power], the first vector's L1 step fell below [tol]; for
          [Lanczos], pair 1's residual was within [tol] times its Ritz
          value's scale at the last check, or the Krylov space was
          exhausted.  When [false], [lambda2] is the last iterate's
          estimate, not a converged eigenvalue. *)
}

val lambda2 :
  ?obs:Fn_obs.Sink.t ->
  ?alive:Bitset.t ->
  ?domains:int ->
  ?max_iter:int ->
  ?tol:float ->
  ?method_:Method.t ->
  Gview.t ->
  result
(** λ₂ and the Fiedler embedding of the alive-restricted operator, on
    either {!Gview.t} arm (an implicit view pays one neighbor-closure
    call per row per matvec instead of a CSR scan).
    The alive mask restricts the operator to the induced subgraph.
    Isolated alive nodes are permitted (they contribute λ = 1 rows);
    the graph restricted to [alive] should be connected for λ₂ to
    have its usual meaning.  Defaults: [max_iter] 1000, [tol] 1e-9,
    [domains] 1, [method_] chosen by {!Method.select} (the [Power]
    choice is bit-identical to the historical code).

    With [domains > 1] the matvec is chunked over a
    {!Fn_parallel.Par.Pool} of worker domains (on graphs large enough
    for the barrier to pay for itself).  Each matrix row touches only
    row-local state, so the result is bit-identical for every domain
    count — parallelism here is an implementation detail, not an
    algorithm change.  This holds for every method.

    With an enabled [obs] sink the [spectral.lambda2] exit span
    carries [lambda2], [iterations], [method] and [converged]; the
    [spectral.solve] span of {!solve} carries the same fields, with
    [iterations] counting both vectors' applications. *)

val solve :
  ?obs:Fn_obs.Sink.t ->
  ?alive:Bitset.t ->
  ?domains:int ->
  ?max_iter:int ->
  ?tol:float ->
  ?method_:Method.t ->
  Gview.t ->
  result * float array
(** [lambda2] plus a second bottom embedding: the Fiedler vector of
    the result and a second vector orthogonal to it span the bottom
    of the spectrum.  When λ₂ is (near-)degenerate — e.g. the row and
    column modes of a square mesh — a single vector is an arbitrary
    mix of the eigenspace; sweeping several rotations of the pair
    recovers the axis-aligned cuts (see {!Estimate}).  Returns the
    {!result} and the second, deflated embedding.  [Power] runs a
    second iteration deflated against the first vector (its first
    vector is bit-identical to {!lambda2}'s); [Lanczos] gets both
    vectors from one Krylov basis.  Every solve starts from the
    deterministic cosine vector, so the result depends only on the
    view, the mask and the parameters — never on earlier solves. *)

val cheeger_lower : result -> float
(** λ₂ / 2 — the Cheeger estimate of a conductance lower bound.  It
    bounds conductance only when [result.lambda2] is the converged λ₂:
    [Power] returns after [max_iter] steps whether or not [tol] was
    met ([result.converged] tells which), and an unconverged λ₂ can
    overstate the true one several times over (meshes and tori of a
    few thousand nodes), in which case this is no bound at all. *)

val conductance_to_edge_expansion_lb : ?alive:Bitset.t -> Gview.t -> float -> float
(** [conductance_to_edge_expansion_lb g phi] turns a conductance lower
    bound into an edge-expansion lower bound via the minimum degree:
    αe >= φ · d_min / 2 on balanced cuts (vol(U) >= d_min·|U| and
    min side has volume <= vol(G)/2).  With [alive], d_min is taken
    over the alive nodes' alive-restricted degrees — the graph the
    masked λ₂ describes; the host graph's d_min can be larger and
    overstate the bound. *)
