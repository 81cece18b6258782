(** Unit-capacity maximum flow and connectivity (Menger).

    Exact min-cut machinery complementing the heuristic expansion
    estimates: max s-t flow equals the number of edge-disjoint s-t
    paths, and with node splitting, of internally vertex-disjoint
    paths.  Edmonds–Karp on the residual graph; on unit capacities
    the flow value is bounded by the degree, so queries are cheap. *)

val max_flow : ?alive:Bitset.t -> Graph.t -> src:int -> dst:int -> int
(** Edge-disjoint s-t paths (undirected, each edge usable once).
    Requires distinct alive endpoints. *)

val vertex_disjoint_paths : ?alive:Bitset.t -> Graph.t -> src:int -> dst:int -> int
(** Internally vertex-disjoint s-t paths (Menger), computed by node
    splitting.  For adjacent nodes the direct edge counts as one
    path.  Requires distinct alive endpoints. *)

val edge_connectivity : ?alive:Bitset.t -> Graph.t -> int
(** Global edge connectivity of the alive subgraph: min over t of
    max_flow(s0, t) with s0 the first alive node (correct for
    undirected graphs).  0 if fewer than 2 alive nodes or
    disconnected. *)
