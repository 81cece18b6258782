open Fn_graph
open Fn_prng

(** Finders for low-expansion sets — the "∃ S_i ⊆ G_i" oracle inside
    the paper's pruning algorithms.

    The paper's algorithms are existential (they assume the oracle);
    this module realizes it on either {!Gview.t} arm: exactly on small
    fragments, by the {!Fn_expansion.Estimate.run_v} portfolio on
    larger ones.  A finder returns a witness set [S] with expansion at
    most the threshold and [|S| <= |alive|/2], or [None] when it
    cannot find one.  A [None] from the heuristic finder does not
    prove absence — the pruning loop documents the resulting
    one-sidedness. *)

type t = alive:Bitset.t -> Gview.t -> threshold:float -> Bitset.t option

val default :
  ?obs:Fn_obs.Sink.t ->
  ?rng:Rng.t ->
  ?domains:int ->
  Fn_expansion.Cut.objective ->
  t
(** Portfolio finder: a disconnected fragment yields its smallest
    component (value 0); a connected one of at most 18
    alive nodes is solved exactly, and a larger one runs
    {!Fn_expansion.Estimate.run_v} — its ball slice alone above
    {!Fn_expansion.Estimate.spectral_node_cap} alive nodes (a [None]
    there is weaker evidence).  Each call makes one components pass:
    the estimator's own between the two limits, the finder's outside
    them.  [domains] is forwarded to the estimator as a speed knob:
    no witness depends on it.  An enabled [obs] sink receives each
    estimate's ["expansion.estimate"] span and its spectral spans.
    Deterministic per view; up to the
    cap the witness equals the materialized twin's, above it the ball
    slice follows the view's neighbor order (the order rule in
    {!Gview}). *)

val exact : Fn_expansion.Cut.objective -> t
(** Exact only; raises [Invalid_argument] beyond 18 alive nodes. *)
