open Fn_graph
open Fn_prng

(** Algorithm [Prune2(ε)] — Figure 2 of the paper.

    The random-fault variant: while the current graph G_i contains a
    connected set S_i with edge boundary |(S_i, G_i \ S_i)| <=
    α_e·ε·|S_i| and |S_i| <= |G_i|/2, cull the *compactification*
    K_{G_i}(S_i) (Lemma 3.3), which has edge expansion no larger than
    S_i's and leaves the remainder connected-enough for the Theorem
    3.4 accounting.  Theorem 3.4: under fault probability
    p <= 1/(2e·δ^{4σ}) and ε <= 1/(2δ), w.h.p. the surviving H has
    at least n/2 nodes and edge expansion >= ε·α_e. *)

type culled = {
  found : Bitset.t;  (** the low-expansion connected set S_i *)
  compacted : Bitset.t;  (** K_{G_i}(S_i), what was actually removed *)
  size : int;  (** |K| *)
  edge_boundary : int;  (** |(K, G_i \ K)| at cull time *)
}

type result = {
  kept : Bitset.t;
  culled : culled list;
  iterations : int;
  threshold : float;  (** α_e·ε *)
}

val run :
  ?obs:Fn_obs.Sink.t ->
  ?finder:Low_expansion.t ->
  ?rng:Rng.t ->
  ?domains:int ->
  Graph.t ->
  alive:Bitset.t ->
  alpha_e:float ->
  epsilon:float ->
  result
(** Requires [alpha_e > 0] and [0 < epsilon < 1].  The finder's
    witness is split into connected components if necessary (one of
    them always satisfies the threshold, by the mediant inequality)
    before compactification.  The finder is called on [Gview.Csr g].
    [domains] is forwarded to the default {!Low_expansion.default}
    finder (default 1: sequential, byte-reproducible); ignored when
    [finder] is given.  Per-round
    edge-boundary counts (including the per-component ratios of the
    witness split) reuse a {!Boundary.Scratch} rather than
    allocating per round.

    With an enabled [obs] sink the run is wrapped in a ["prune2.run"]
    span and every cull emits a ["prune2.round"] instant (culled size,
    measured edge-boundary ratio, survivor count); the default null
    sink costs nothing. *)

val total_culled : result -> int

val verify_certificates : Graph.t -> alive:Bitset.t -> result -> bool
(** Independently re-check, against a replay of the loop: each S_i
    connected, within the live graph, below threshold; each K_i
    compact in G_i (Claim 3.5) with edge expansion <= S_i's
    (Lemma 3.3). *)
