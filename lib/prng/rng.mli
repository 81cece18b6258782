(** Unified random-number interface for the whole library.

    Every randomized algorithm and experiment in faultnet takes an
    [Rng.t] explicitly, so that all results are reproducible from a
    single integer seed.  The generator is splittable: {!split}
    derives an independent child stream deterministically, which is
    how parallel Monte-Carlo trials obtain per-domain generators. *)

type t
(** Mutable generator. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. *)

val of_int64 : int64 -> t
(** [of_int64 seed] builds a generator from a 64-bit seed. *)

val copy : t -> t
(** Independent duplicate with identical future output. *)

val split : t -> t
(** [split t] returns a new generator whose stream is independent of
    the future output of [t].  Deterministic: the child depends only
    on the state of [t] at the time of the call. *)

val split_n : t -> int -> t array
(** [split_n t k] returns [k] pairwise-independent children.

    This is the pre-split pattern the [rng-unsplit-in-par] lint rule
    steers parallel code toward: split {e before} the fork, index the
    children inside it —
    {[
      let rngs = Rng.split_n rng n in
      Par.init n (fun i -> trial rngs.(i))
    ]}
    Each index then owns a private stream, so the result is the same
    for every domain count and schedule.  Drawing from a single shared
    [t] across domains would race on its state {e and} make results
    interleaving-dependent. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound); requires [bound > 0].
    Uses rejection sampling, so it is exactly uniform. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on the inclusive range [lo, hi]. *)

val unit_float : t -> float
(** Uniform on [0, 1), with 53 bits of precision. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [0..n-1]. *)

val sample : t -> int -> int -> int array
(** [sample t n k] draws [k] distinct integers uniformly from
    [0..n-1], in random order.  Requires [0 <= k <= n].  Uses a
    partial Fisher-Yates for large [k] and hash-rejection for small
    [k], so both regimes are O(k) expected space. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
