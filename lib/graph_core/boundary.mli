(** Node and edge boundaries — the paper's Γ(U) and (U, V\U).

    All functions may be restricted to an [alive] mask: dead nodes
    belong to neither side and dead endpoints kill an edge.  [u]
    itself is excluded from its own boundary, as in the paper.

    Boundary sets and sizes do not depend on neighbor order, so every
    function here takes a {!Gview.t} and agrees exactly across its
    arms; each count is one loop over {!Gview.iter_neighbors}. *)

val node_boundary : ?alive:Bitset.t -> Gview.t -> Bitset.t -> Bitset.t
(** [node_boundary view u] is Γ(U): alive nodes outside [u] adjacent to a
    node of [u].  Members of [u] that are dead contribute nothing. *)

val node_boundary_size : ?alive:Bitset.t -> Gview.t -> Bitset.t -> int

val edge_boundary_size : ?alive:Bitset.t -> Gview.t -> Bitset.t -> int
(** |(U, V\U)|: alive-alive edges with exactly one endpoint in [u]. *)

module Scratch : sig
  (** Reusable scratch state for repeated boundary counts.

      The Prune / Prune2 round loops count a boundary per round;
      {!node_boundary_size} allocates a universe-sized Bitset every
      call.  A scratch carries two generation-stamped int arrays
      allocated once, so each count is O(vol(u)) with zero
      allocation and results are exactly equal to the plain
      functions (the differential tests assert this). *)

  type t

  val create : int -> t
  (** [create n] builds scratch for graphs with universe size [n]. *)

  val node_boundary_size : t -> ?alive:Bitset.t -> Gview.t -> Bitset.t -> int
  (** Equals {!Boundary.node_boundary_size} on the same arguments.
      Raises [Invalid_argument] if the scratch universe does not
      match the graph.  The Prune round loop drives this on implicit
      tori without materializing edges. *)

  val edge_boundary_size : t -> ?alive:Bitset.t -> Gview.t -> Bitset.t -> int
  (** Equals {!Boundary.edge_boundary_size} on the same arguments. *)
end

val node_expansion : ?alive:Bitset.t -> Gview.t -> Bitset.t -> float
(** |Γ(U)| / |U∩alive|.  Raises [Invalid_argument] on an empty set. *)

val edge_expansion : ?alive:Bitset.t -> Gview.t -> Bitset.t -> float
(** |(U, V\U)| / min(|U|, |V\U|) over alive nodes.  Raises
    [Invalid_argument] if either side is empty. *)
