open Fn_graph

(** Sweep cuts: order nodes by a score (typically the Fiedler vector)
    and take the best prefix.

    Both boundary sizes are maintained incrementally, so a full sweep
    costs O(m + n log n) and simultaneously finds the best prefix for
    the node- and edge-expansion objectives. *)

val best_prefix : ?alive:Bitset.t -> Graph.t -> score:float array -> Cut.objective -> Cut.t
(** Best expansion over all prefixes [1 <= k <= alive/2] of the
    ascending-score order, restricted to alive nodes.  Raises
    [Invalid_argument] if fewer than 2 alive nodes. *)

val best_prefix_v :
  ?alive:Bitset.t -> Gview.t -> score:float array -> Cut.objective -> Cut.t
(** {!best_prefix} over any {!Gview.t}; the view is matched once and
    the sweep drives its neighbor iterator. *)

val spectral_cut :
  ?alive:Bitset.t ->
  ?domains:int ->
  Graph.t ->
  Cut.objective ->
  Cut.t
(** Convenience: Fiedler vector + {!best_prefix}.  [domains] is
    forwarded to {!Spectral.lambda2} — the matvec dominates this
    path, and before [domains] was threaded through here the spectral
    solve silently serialized inside otherwise-parallel callers. *)

val spectral_cut_v :
  ?alive:Bitset.t ->
  ?domains:int ->
  Gview.t ->
  Cut.objective ->
  Cut.t
