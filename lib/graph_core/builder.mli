(** Mutable graph builder.

    Generators accumulate edges here (amortised O(1) per edge) and
    call {!to_graph} once.  Duplicate edges and both orientations are
    tolerated and merged at build time. *)

type t

val create : int -> t
(** [create n] starts an edge accumulator for a graph on [n] nodes. *)

val add_edge : t -> int -> int -> unit
(** Record an undirected edge.  Rejects self-loops and out-of-range
    endpoints immediately. *)

val to_graph : t -> Graph.t
(** Freeze into a CSR graph (sorts and dedupes). *)
