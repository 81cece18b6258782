(** Connected components of the alive part of a graph.

    Component ids follow the ascending root scan, and membership does
    not depend on neighbor order, so every function takes a
    {!Gview.t} and labels the same topology identically on either arm
    (the order rule in {!Gview}). *)

type t = {
  labels : int array;  (** component id per node; [-1] for dead nodes *)
  sizes : int array;  (** size per component id, ids are [0 .. count-1] *)
  count : int;
}

val compute : ?alive:Bitset.t -> Gview.t -> t
(** One loop over {!Gview.iter_neighbors}; the root scan order fixes
    component ids. *)

val largest_size : t -> int
(** Size of the largest component; 0 when there are none. *)

val members : t -> int -> Bitset.t
(** Nodes of the given component as a set over the original graph's
    universe. *)

val largest_members : ?alive:Bitset.t -> Gview.t -> Bitset.t
(** Convenience: node set of a largest alive component (empty set if
    none). *)

val smallest_members : ?alive:Bitset.t -> Gview.t -> Bitset.t option
(** Node set of the first smallest alive component (lowest id among
    the smallest) when there are at least two components, so it holds
    at most half the alive nodes and has an empty boundary; [None]
    when the alive set is connected or empty. *)

val is_connected : ?alive:Bitset.t -> Gview.t -> bool
(** True iff the alive nodes form exactly one component; the empty
    alive set and the empty graph count as connected. *)
