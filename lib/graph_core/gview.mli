(** Pluggable graph access: one interface over two representations.

    - [Csr g] wraps a materialized {!Graph.t}.
    - [Implicit r] defines the topology by a neighbor {e function}
      (coordinate / bit arithmetic); no edge set is ever stored, which
      is what lets structured topologies (meshes, tori, hypercubes,
      butterflies, de Bruijn, chain-replacement graphs) scale to
      n = 10^7 and beyond on O(n)-or-less memory.  Build one with
      {!implicit}.

    The traversal, boundary, component, percolation, cut, sweep,
    spectral and compactness functions take a [Gview.t] and nothing
    else: each kernel is one loop over the iterator
    {!iter_neighbors} returns, so it is written once and runs on
    either arm (see DESIGN.md, "Pluggable graph access").  A caller
    holding a {!Graph.t} passes [Gview.Csr g].

    {b The order rule.}  Implicit views must describe simple
    undirected graphs over nodes [0 .. n-1]: [iter_neighbors v] emits
    each neighbor exactly once, no self-loops, and edges are symmetric
    ([w] emitted for [v] iff [v] emitted for [w]).  Neighbor order is
    the generator's choice, so:

    - a result that does not depend on neighbor order (distances,
      radius balls, reachability, boundary sizes, component
      membership, percolation curves, the expansion value of a given
      set) takes [Gview.t] and is identical on an implicit view and on
      its materialized twin;
    - an estimate kernel takes [Gview.t] and is deterministic per
      view, but is not promised bit-equal to the materialized twin's:
      spectral sums add a row in neighbor order, a size-capped BFS
      ball ({!Bfs.ball_of_size}, the ball grower) stops inside a shell
      collected in neighbor order, and local search tries its
      candidates in neighbor order.  The expansion estimator (behind
      the Prune finder and faultnetd's α) materializes an implicit
      view up to its node cap, so there it gives the twin's answer;
      above the cap its ball slice is per-view;
    - a result that follows CSR row order ({!Bfs.tree}) keeps
      {!Graph.t}.

    {!materialize} validates the implicit invariants, and the property
    tests compare every implicit generator edge-for-edge against its
    materialized twin and every order-free function across arms. *)

type implicit = {
  n : int;  (** node count *)
  max_degree : int;  (** exact maximum degree, known a priori (O(1)) *)
  degree : int -> int;  (** exact degree of a node *)
  iter_neighbors : int -> (int -> unit) -> unit;
      (** emit each neighbor exactly once; allocation-free *)
  has_edge : int -> int -> bool;  (** adjacency test *)
}

type t = Csr of Graph.t | Implicit of implicit

val implicit :
  n:int ->
  max_degree:int ->
  ?degree:(int -> int) ->
  ?has_edge:(int -> int -> bool) ->
  (int -> (int -> unit) -> unit) ->
  t
(** [implicit ~n ~max_degree iter] builds an implicit view.  [degree]
    defaults to counting [iter]'s emissions; [has_edge] defaults to a
    scan over [iter].  Generators with cheap closed forms should pass
    both. *)

val num_nodes : t -> int

val max_degree : t -> int
(** O(1) on the implicit arm (the stored bound); scans degrees on the
    CSR arm like {!Graph.max_degree}. *)

val degree : t -> int -> int

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_neighbors view] matches the arm once and returns its
    iterator: {!Graph.iter_neighbors} (ascending row order) on [Csr],
    the generator closure on [Implicit].  Kernels bind it once outside
    their loop, [let iter = Gview.iter_neighbors view in], and call
    [iter v f] per node. *)

val has_edge : t -> int -> int -> bool

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate each undirected edge once with [u < v].  CSR arm follows
    {!Graph.iter_edges} order; implicit arm visits nodes in increasing
    order and keeps the generator's neighbor order within a node. *)

val num_edges : t -> int
(** Undirected edge count.  O(1) + nothing on the CSR arm; counts via
    {!iter_edges} (O(n·d)) on the implicit arm. *)

val materialize : t -> Graph.t
(** Flatten a view into a CSR graph: identity on [Csr], and an exact
    edge-for-edge conversion on [Implicit] (rows sorted, the
    {!Graph.t} invariants re-established).  Raises [Invalid_argument]
    if the implicit view emits a self-loop, a duplicate neighbor, an
    out-of-range node, an asymmetric edge, or a degree inconsistent
    with its [degree]/[max_degree] metadata — this is the validation
    choke point the differential tests drive. *)
