(** Iterative depth-first search (no stack-overflow risk on large
    graphs), optionally restricted to an alive mask.

    {!reachable} and {!is_connected_subset} return sets that do not
    depend on neighbor order, so they take a {!Gview.t} (the order
    rule in {!Gview}). *)

val reachable : ?alive:Bitset.t -> Gview.t -> int -> Bitset.t
(** Set of alive nodes reachable from the source (including it). *)

val is_connected_subset : Gview.t -> Bitset.t -> bool
(** [is_connected_subset view s] is true iff the subgraph induced by
    [s] is connected (the empty set counts as connected). *)
