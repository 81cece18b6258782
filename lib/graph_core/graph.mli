(** Immutable undirected graphs in compressed-sparse-row form.

    Nodes are integers [0 .. n-1].  Adjacency lists are stored in two
    flat arrays ([xadj]/[adj], the classic CSR layout), sorted per
    node, with no self-loops and no parallel edges.  This is the
    single graph representation used by every algorithm in faultnet;
    fault patterns are expressed as {!Bitset.t} masks over the nodes
    rather than by rebuilding the structure. *)

type t

val compare_int_pair : int * int -> int * int -> int
(** Monomorphic lexicographic order on int pairs (edges, (key, value)
    rows, ...): avoids polymorphic [compare]'s per-element C call in
    sort hot paths. *)

val num_nodes : t -> int
val num_edges : t -> int
(** Undirected edge count (each edge counted once). *)

val degree : t -> int -> int

val max_degree : t -> int
(** 0 for the empty graph. *)

val min_degree : t -> int

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Allocation-free iteration over the neighbours of a node. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val has_edge : t -> int -> int -> bool
(** Binary search in the sorted adjacency row; O(log degree). *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate each undirected edge once, with [u < v]. *)

val edges : t -> (int * int) array
(** All undirected edges, each once, with [u < v], lexicographic. *)

val of_endpoint_arrays : int -> us:int array -> vs:int array -> len:int -> t
(** The canonical construction path: [of_endpoint_arrays n ~us ~vs
    ~len] builds a graph on [n] nodes from the first [len] endpoint
    pairs [(us.(i), vs.(i))].  Self-loops are rejected; duplicate
    edges (in either orientation) are merged; rows come out sorted.
    Every other constructor ({!of_edges}, {!of_edge_array},
    [Builder.to_graph]) delegates here, so validation, dedupe and CSR
    layout live in exactly one place.  Raises [Invalid_argument] on
    out-of-range endpoints. *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n es] builds a graph on [n] nodes.  Same semantics as
    {!of_endpoint_arrays} (which it delegates to). *)

val of_edge_array : int -> (int * int) array -> t

val unsafe_of_csr : n:int -> xadj:int array -> adj:int array -> t
(** Wrap a prebuilt CSR structure.  The caller promises the invariants
    (see {!Check.csr}); generators use this to avoid re-sorting. *)

val xadj : t -> int array
val adj : t -> int array
(** Raw CSR arrays (do not mutate).  Exposed for kernels that need
    tight loops, e.g. spectral matrix-vector products. *)

val empty : int -> t
(** [empty n] has [n] nodes and no edges. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Short human-readable summary (node/edge counts, degree range). *)
