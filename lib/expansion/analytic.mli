(** Closed-form expansion values and order-of-magnitude references for
    the standard families, used to cross-check the estimators.

    "Exact" functions are provable equalities; "order" functions are
    Θ-references with unspecified constants (tests check ratios stay
    in a fixed window, not equality). *)

val complete_node_exact : int -> float
(** K_n: minimized at |U| = floor(n/2), value (n - floor(n/2)) / floor(n/2). *)

val cycle_node_exact : int -> float
(** C_n: a contiguous arc of floor(n/2) nodes is optimal: 2/floor(n/2). *)

val path_node_exact : int -> float
(** P_n: a prefix of floor(n/2) nodes: 1/floor(n/2). *)

val hypercube_edge_exact : int -> float
(** Q_d: the edge isoperimetric inequality (Harper) gives αe = 1,
    witnessed by a subcube of half the nodes. *)
