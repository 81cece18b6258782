(** Iterative depth-first search (no stack-overflow risk on large
    graphs), optionally restricted to an alive mask.

    {!reachable} and {!is_connected_subset} return sets that do not
    depend on neighbor order, so they take a {!Gview.t}; {!preorder}
    and {!forest} follow CSR row order and keep {!Graph.t} (the order
    rule in {!Gview}). *)

val preorder : ?alive:Bitset.t -> Graph.t -> int -> int array
(** Nodes in DFS preorder from the source. *)

val reachable : ?alive:Bitset.t -> Gview.t -> int -> Bitset.t
(** Set of alive nodes reachable from the source (including it). *)

val is_connected_subset : Gview.t -> Bitset.t -> bool
(** [is_connected_subset view s] is true iff the subgraph induced by
    [s] is connected (the empty set counts as connected). *)

val forest : ?alive:Bitset.t -> Graph.t -> int array
(** DFS forest over all alive nodes: parent array with roots mapped to
    themselves and dead nodes to [-1]. *)
