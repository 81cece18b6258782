(** Breadth-first search, optionally restricted to an alive mask.

    All functions treat nodes outside [alive] as absent; omitting
    [alive] means the whole graph is alive.  Distances use [-1] for
    unreachable (or dead) nodes.

    Every result here except {!tree} is independent of neighbor order,
    so it takes a {!Gview.t} and agrees exactly across its arms; each
    traversal is one loop over {!Gview.iter_neighbors}.  {!tree}
    follows CSR row order and keeps {!Graph.t} (the order rule in
    {!Gview}). *)

val distances : ?alive:Bitset.t -> Gview.t -> int -> int array
(** [distances view src] is the array of hop distances from [src];
    [-1] marks unreachable nodes.  [src] must be alive. *)

val multi_source_distances : ?alive:Bitset.t -> Gview.t -> int array -> int array
(** Distances from the nearest of several sources. *)

val reachable : ?alive:Bitset.t -> Gview.t -> int -> Bitset.t
(** Set of alive nodes reachable from [src] (including [src]). *)

val tree : ?alive:Bitset.t -> Graph.t -> int -> int array
(** BFS parent array: [parent.(src) = src], [-1] for unreachable. *)

val ball : ?alive:Bitset.t -> Gview.t -> int -> int -> Bitset.t
(** [ball view src r] is the set of alive nodes within distance [r]. *)

val ball_of_size : ?alive:Bitset.t -> Gview.t -> int -> int -> Bitset.t
(** [ball_of_size view src k] grows a BFS region from [src] and stops
    as soon as at least [k] nodes are collected (or the component is
    exhausted).  BFS order makes the result connected. *)

type ball_grower
(** Resumable BFS ball growth from one source.  The traversal state
    persists across {!grow_ball} calls, so growing through an
    increasing size schedule (e.g. doubling) visits each node once
    overall instead of restarting per size. *)

val ball_grower : ?alive:Bitset.t -> Gview.t -> int -> ball_grower
(** [ball_grower view src] starts a traversal at [src] with no node
    collected yet.  [src] must be alive.  On an implicit view the
    grower holds O(n) traversal state but touches only the ball it
    actually grows — the 10^7-node bench kernels go through here. *)

val grow_ball : ball_grower -> int -> Bitset.t
(** [grow_ball t k] extends the traversal until at least [k] nodes
    are collected (or the component is exhausted) and returns a fresh
    copy of the current ball.  [grow_ball t k] after [grow_ball t j]
    with [j <= k] equals [ball_of_size view src k]: BFS order is
    deterministic, so resuming and restarting agree.  Monotone: the
    ball only ever gains nodes. *)

val ball_size : ball_grower -> int
(** Number of nodes collected so far (the cardinal of the last
    {!grow_ball} result). *)

val ball_exhausted : ball_grower -> bool
(** True once the component of the source has been fully collected;
    further {!grow_ball} calls return the same set. *)

val eccentricity : ?alive:Bitset.t -> Gview.t -> int -> int
(** Largest finite distance from the source. *)

val path_to : parents:int array -> int -> int list
(** Reconstruct the path from the BFS source to a target out of a
    {!tree} parent array; raises [Not_found] if unreachable. *)
