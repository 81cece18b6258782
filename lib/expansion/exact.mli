open Fn_graph

(** Exact expansion by exhaustive subset enumeration.

    Feasible up to ~22 nodes (the node-expansion variant uses an
    O(2^n)-word table of neighbourhood masks).  This is the ground
    truth that validates every heuristic in {!Estimate}. *)

val max_nodes : int
(** Hard limit (22). *)

val node_expansion : Graph.t -> Cut.t
(** Minimum |Γ(U)|/|U| over nonempty U with |U| <= n/2.  Requires
    [2 <= n <= max_nodes].  Returns 0 with a component witness for
    disconnected graphs. *)

val edge_expansion : Graph.t -> Cut.t
(** Minimum |(U,V\U)|/min(|U|,|V\U|) over proper nonempty U.  Same
    size limits. *)
