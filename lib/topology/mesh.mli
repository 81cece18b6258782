open Fn_graph

(** d-dimensional meshes (grid graphs) with coordinate arithmetic.

    The mesh is the paper's central example: Theorem 3.6 proves its
    span is at most 2.  Nodes are lattice points of the box
    [0..dims.(0)-1] x ... x [0..dims.(d-1)-1], linearised in row-major
    order; two nodes are adjacent iff their coordinates differ by one
    in exactly one dimension. *)

type geometry = {
  dims : int array;  (** side length per dimension, each >= 1 *)
  strides : int array;  (** row-major strides *)
  size : int;
}

val geometry : int array -> geometry
(** Validates side lengths and precomputes strides. *)

val encode : geometry -> int array -> int
(** Coordinates to node id; bounds-checked. *)

val decode : geometry -> int -> int array
(** Node id to coordinates. *)

val graph : int array -> Graph.t * geometry
(** [graph dims] builds the mesh. *)

val cube : d:int -> side:int -> Graph.t * geometry
(** The d-dimensional mesh with equal sides — [graph (Array.make d side)]. *)

val virtual_neighbors : geometry -> int -> int list
(** King-move adjacency used by the Theorem 3.6 construction: nodes
    whose coordinates differ by at most 1 in at most two dimensions
    and agree elsewhere (excluding the node itself).  These are the
    "virtual edges" E_v of the paper. *)
