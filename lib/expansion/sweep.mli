open Fn_graph

(** Sweep cuts: order nodes by a score (typically the Fiedler vector)
    and take the best prefix.

    Both boundary sizes are maintained incrementally, so a full sweep
    costs O(m + n log n) and simultaneously finds the best prefix for
    the node- and edge-expansion objectives. *)

val best_prefix : ?alive:Bitset.t -> Gview.t -> score:float array -> Cut.objective -> Cut.t
(** Best expansion over all prefixes [1 <= k <= alive/2] of the
    ascending-score order (ties by node id), restricted to alive
    nodes; one loop over {!Gview.iter_neighbors}.  Raises
    [Invalid_argument] if fewer than 2 alive nodes. *)
