(** Disjoint-set forest with union by size and path compression.

    Tracks component sizes and the current maximum component size,
    which is what percolation sweeps (Newman-Ziff) query after every
    union, so both queries are O(1). *)

type t

val create : int -> t
(** [create n] makes [n] singleton components. *)

val union : t -> int -> int -> bool
(** Merge the two components; returns [false] if already merged. *)

val max_component_size : t -> int
(** Size of the largest component, maintained incrementally. *)
