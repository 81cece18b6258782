open Fn_graph
open Fn_prng

(** Algorithm [Prune(ε)] — Figure 1 of the paper.

    Starting from the faulty graph G_f (an alive mask over G), while
    there is a set S_i in the current graph G_i with
    |Γ(S_i)| <= α·ε·|S_i| and |S_i| <= |G_i|/2, remove S_i.  Theorem
    2.1: with ε = 1 - 1/k and at most f <= α·n/(4k) adversarial
    faults, the surviving H has at least n - k·f/α nodes and node
    expansion at least (1 - 1/k)·α.

    The set-finding oracle is a {!Low_expansion.t}, one type over
    either {!Gview.t} arm; with the heuristic finder the loop stops
    when the portfolio can no longer exhibit a low-expansion set, so
    the size guarantee is exact (culling only ever removes
    certified-low-expansion sets, Lemma 2.2 accounting holds) while
    the final expansion claim is "no witness below the threshold was
    found". *)

type culled = {
  set : Bitset.t;  (** S_i, in original node ids *)
  size : int;
  boundary : int;  (** |Γ(S_i)| measured inside G_i at cull time *)
}

type result = {
  kept : Bitset.t;  (** H: alive nodes that survived pruning *)
  culled : culled list;  (** in cull order *)
  iterations : int;
  threshold : float;  (** α·ε *)
}

val run :
  ?obs:Fn_obs.Sink.t ->
  ?finder:Low_expansion.t ->
  ?rng:Rng.t ->
  ?domains:int ->
  Graph.t ->
  alive:Bitset.t ->
  alpha:float ->
  epsilon:float ->
  result
(** [run g] is [run_v (Gview.Csr g)]; the finder is called on that
    view. *)

val run_v :
  ?obs:Fn_obs.Sink.t ->
  ?finder:Low_expansion.t ->
  ?rng:Rng.t ->
  ?domains:int ->
  Gview.t ->
  alive:Bitset.t ->
  alpha:float ->
  epsilon:float ->
  result
(** [run_v view ~alive ~alpha ~epsilon] executes Prune(ε) with
    threshold α·ε on either {!Gview.t} arm.  Requires [alpha > 0] and
    [0 < epsilon < 1].  [domains] is forwarded to the default
    {!Low_expansion.default} finder (default 1: sequential,
    byte-reproducible); it is ignored when [finder] is given.  The
    round loop (finder call, scratch boundary count, cull accounting)
    never materializes edges, so Prune runs on implicit 10^7-node
    topologies; the default finder's estimator does materialize the
    view once a fragment is down to
    {!Fn_expansion.Estimate.spectral_node_cap} alive nodes.  Per-round boundary counts reuse a
    {!Boundary.Scratch} rather than allocating per round, with
    results equal to a fresh {!Boundary.node_boundary_size}.

    With an enabled [obs] sink the run is wrapped in a ["prune.run"]
    span and every cull emits a ["prune.round"] instant (culled size,
    measured boundary ratio, survivor count); with the default null
    sink no clock is read and nothing is allocated. *)

val total_culled : result -> int

val verify_certificates : Graph.t -> alive:Bitset.t -> result -> bool
(** Re-check every culled set against the graph state it was removed
    from: recomputes |Γ(S_i)| and |S_i| <= |G_i|/2 independently.
    [alive] is the original post-fault mask the run started from. *)
