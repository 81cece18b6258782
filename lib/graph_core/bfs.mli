(** Breadth-first search, optionally restricted to an alive mask.

    All functions treat nodes outside [alive] as absent; omitting
    [alive] means the whole graph is alive.  Distances use [-1] for
    unreachable (or dead) nodes.

    Each traversal is one loop over {!Gview.iter_neighbors}.
    Distances, reachability and radius balls are independent of
    neighbor order and agree exactly across the arms of a {!Gview.t}.
    A size-capped ball ({!ball_of_size}, the ball grower) stops inside
    a BFS shell collected in neighbor order, so it is deterministic per
    view but not promised equal on an implicit view and its
    materialized twin.  {!tree} follows CSR row order and keeps
    {!Graph.t} (the order rule in {!Gview}). *)

val distances : ?alive:Bitset.t -> Gview.t -> int -> int array
(** [distances view src] is the array of hop distances from [src];
    [-1] marks unreachable nodes.  [src] must be alive. *)

val multi_source_distances : ?alive:Bitset.t -> Gview.t -> int array -> int array
(** Distances from the nearest of several sources. *)

val tree : ?alive:Bitset.t -> Graph.t -> int -> int array
(** BFS parent array: [parent.(src) = src], [-1] for unreachable. *)

val ball : ?alive:Bitset.t -> Gview.t -> int -> int -> Bitset.t
(** [ball view src r] is the set of alive nodes within distance [r]. *)

val ball_of_size : ?alive:Bitset.t -> Gview.t -> int -> int -> Bitset.t
(** [ball_of_size view src k] grows a BFS region from [src] and stops
    as soon as at least [k] nodes are collected (or the component is
    exhausted).  BFS order makes the result connected. *)

type ball_grower
(** Resumable BFS ball growth from one source, with the ball's node
    and edge boundaries counted as it grows.  The traversal state
    persists across {!extend_ball} / {!grow_ball} calls, so growing
    through an increasing size schedule (e.g. doubling) visits each
    node once overall instead of restarting per size, and
    {!restart_ball} reuses the grower's O(n) arrays for the next
    source. *)

val ball_grower : ?alive:Bitset.t -> Gview.t -> int -> ball_grower
(** [ball_grower view src] starts a traversal at [src] with no node
    collected yet.  [src] must be alive.  The grower holds O(n) state
    (one byte per node and an n-int queue) but touches only the ball
    it grows and that ball's frontier — the 10^7-node bench kernels
    go through here. *)

val restart_ball : ball_grower -> int -> unit
(** [restart_ball t src] empties the ball and starts over at [src]
    (which must be alive) on the same arrays, in time proportional to
    the nodes the previous traversal queued.  Afterwards [t] behaves
    exactly like [ball_grower view src]. *)

val extend_ball : ball_grower -> int -> unit
(** [extend_ball t k] extends the traversal until at least [k] nodes
    are collected (or the component is exhausted), without building a
    set.  BFS order is deterministic, so the ball after any schedule
    of calls ending at [k] (each target at least the previous one) is
    [ball_of_size view src k].  Monotone: the ball only ever gains
    nodes. *)

val grow_ball : ball_grower -> int -> Bitset.t
(** [extend_ball t k], then a fresh set of the current ball. *)

val ball_size : ball_grower -> int
(** Number of nodes collected so far (the cardinal of the current
    ball). *)

val ball_node_boundary : ball_grower -> int
(** |Γ(B)| of the current ball B, in O(1): equals
    [Boundary.node_boundary_size ?alive view b] for the set [b] that
    {!grow_ball} returns.  Once the source is collected, every alive
    neighbour of B has been queued, so the BFS frontier (queued, not
    yet collected) is exactly Γ(B); before that B is empty and the
    count is 0. *)

val ball_edge_boundary : ball_grower -> int
(** |(B, V\B)| of the current ball B, in O(1): equals
    [Boundary.edge_boundary_size ?alive view b].  A running count of
    alive-alive edges with one endpoint in B: collecting a node adds
    one per alive neighbour outside B and removes one per neighbour
    already in B.  Exact on any view meeting the {!Gview} contract
    (symmetric adjacency, no self-loops, each neighbour once). *)

val path_to : parents:int array -> int -> int list
(** Reconstruct the path from the BFS source to a target out of a
    {!tree} parent array; raises [Not_found] if unreachable. *)
