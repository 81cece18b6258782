(** Induced subgraphs with node-id mappings.

    Pruning iterations materialise the surviving subgraph when masked
    traversals become the bottleneck; the mapping lets certificates be
    translated back to original node ids. *)

type t = {
  graph : Graph.t;  (** the induced subgraph, nodes renumbered 0.. *)
  to_parent : int array;  (** new id -> original id *)
  of_parent : int array;  (** original id -> new id, or [-1] *)
}

val induce : Graph.t -> Bitset.t -> t
(** Subgraph induced by the given node set. *)
