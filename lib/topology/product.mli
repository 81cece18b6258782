open Fn_graph

(** Cartesian graph products.

    G □ H has node set V(G) × V(H); (u1,u2) ~ (v1,v2) iff u1 = v1 and
    u2 ~ v2, or u2 = v2 and u1 ~ v1.  The classical grid families are
    products — mesh = path □ path, torus = cycle □ cycle, hypercube =
    K2 □ ... □ K2 — which the test suite uses to cross-validate the
    dedicated generators against this one, node numbering included
    ((u1, u2) ↦ u1·|H| + u2, matching the row-major mesh layout). *)

val cartesian : Graph.t -> Graph.t -> Graph.t
