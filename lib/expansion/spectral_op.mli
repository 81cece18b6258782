open Fn_graph

(** The shared spectral operator: one D^{-1/2}-normalized walk matrix
    and one matvec behind both {!Spectral} backends.

    Both methods iterate the same operator M = 2I - L where
    L = I - D^{-1/2} A D^{-1/2} is the normalized Laplacian of the
    alive-restricted graph: eigenvalues of M lie in [0, 2], the top
    eigenpair is the trivial (2, D^{1/2} 1), and lambda2 = 2 - mu2.
    This module owns the degree/mask setup, the trivial-vector
    deflation, the (optionally pool-chunked) matvec and the small
    vector kit (deflate, normalize, power iteration's step pass,
    deterministic cold start, x-space embed), so that Power and
    Lanczos agree on the operator bit for bit.

    The mask is read once: {!create} gives every node a row class
    (dead, isolated alive, or interior with alive-degree > 0), and the
    matvec reads that one byte per row instead of probing the
    {!Bitset} mask.  Dead rows are zero, isolated rows are identity
    rows, interior rows are a neighbor gather.

    The operator is {!Gview.t}-capable: the CSR arm runs a flat-array
    row loop over the graph's own adjacency arrays, the implicit arm
    drives the generator's neighbor closure, which is what gives
    implicit topologies a spectral path at all.

    Determinism: nothing here draws randomness (the cold start is a
    fixed cosine sequence), and each matrix row touches only row-local
    state, so the chunked parallel matvec is bit-identical for every
    [domains] count — parallelism changes which domain evaluates a
    row, never the order of floating-point operations within it.  The
    one cross-row sum, the v1 coefficient {!apply} returns, is always
    taken in index order. *)

type t = private {
  view : Gview.t;
  n : int;  (** node count of the underlying view *)
  alive : Bitset.t option;
  deg : int array;  (** alive-restricted degrees; 0 for dead nodes *)
  sqrt_deg : float array;
  row : Bytes.t;
      (** per-node row class: ['\000'] dead, ['\001'] isolated alive
          (alive-degree 0), ['\002'] interior *)
  v1 : float array;
      (** trivial eigenvector of M in y-space: D^{1/2} 1 normalized,
          zero when the alive fragment has no edges *)
  domains : int;
}

val create : ?alive:Bitset.t -> ?domains:int -> Gview.t -> t
(** Degree and trivial-vector setup for the alive-restricted operator.
    [domains] (default 1) is recorded for {!with_matvec}. *)

val alive_count : t -> int
(** Number of alive nodes (= [n] without a mask); O(mask words). *)

type matvec
(** The matvec's workspace over one {!t}: the pre-scaled source
    buffer u and, on the pooled path, the worker pool.  Valid only
    inside the {!with_matvec} body it was handed to. *)

val with_matvec : t -> (matvec -> 'a) -> 'a
(** Run the body with a matvec workspace.  With [domains > 1] on a
    graph big enough for the barrier to pay (>= 1024 nodes) the rows
    are chunked over a {!Fn_parallel.Par.Pool} created once for the
    body's whole lifetime; either way the bits of every output are
    identical for every [domains] count. *)

val apply : matvec -> staged:bool -> float array -> float array -> float
(** [apply m ~staged src dst] writes [M src] into [dst] and returns
    [dot t dst t.v1], bit for bit: isolated alive nodes are identity
    rows, dead rows are zeroed.  With [~staged:false] the first pass
    materializes the pre-scaled source u = src / sqrt_deg (zero on
    dead and isolated nodes); with [~staged:true] the caller vouches
    that {!advance} wrote u from [src] and nothing has changed [src]
    since, and that pass is skipped.  The row pass then does per row
    one row-class byte, one [dst] write and one multiply-add into the
    returned coefficient, and per edge a single [u] gather; a dead
    neighbor's [+. 0.] cannot change a row sum that starts at [+0.0].
    On the pooled path the coefficient is one index-order pass after
    the barrier, so its bits do not depend on the chunking.  Raises
    [Invalid_argument] unless [src] and [dst] have [n] entries. *)

val with_apply : t -> ((float array -> float array -> float) -> 'a) -> 'a
(** {!with_matvec} handing the body [apply ~staged:false]: the whole
    matvec, scaling pass included, for callers that never stage a
    source. *)

val advance : matvec -> float array -> sq_norm:float -> float array -> tol:float -> bool
(** [advance m z ~sq_norm y ~tol] is power iteration's step pass:
    with [nrm = sqrt sq_norm], it overwrites [y] with [z / nrm] ([z]
    itself when [nrm] is not positive), stages the new [y] as the
    pre-scaled source of the next [apply ~staged:true m y], and
    returns whether the L1 distance between the old and the new [y]
    is below [tol].  One pass, in index order.  Raises
    [Invalid_argument] unless [z] and [y] have [n] entries. *)

val dot : t -> float array -> float array -> float

val deflate : t -> float array list -> float array -> unit
(** [deflate t extra y] removes the [v1] component and then each
    vector of [extra] from [y], in order (classical Gram-Schmidt,
    matching the historical power-iteration deflation exactly). *)

val normalize : t -> float array -> float
(** L2-normalize in place (no-op on the zero vector); returns the
    pre-normalization norm. *)

val cold_start : t -> phase:int -> float array
(** The deterministic pseudo-random start vector: [cos] of a fixed
    integer sequence offset by [phase] so deflated restarts begin
    elsewhere; zero on dead nodes.  No {!Fn_prng} state is drawn, so
    every backend is trivially deterministic under seeds. *)

val embed : t -> float array -> float array
(** y-space -> x-space Fiedler embedding: divide by D^{1/2}; zero on
    dead and isolated nodes. *)
