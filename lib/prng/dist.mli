(** Random variates beyond the uniform primitives of {!Rng}. *)

val geometric : Rng.t -> float -> int
(** [geometric rng p] is the number of failures before the first
    success in Bernoulli(p) trials, i.e. supported on 0, 1, 2, ...
    Requires [0 < p <= 1].  Sampled by inversion, O(1). *)

val binomial : Rng.t -> int -> float -> int
(** [binomial rng n p] draws from Binomial(n, p).  Uses geometric
    skipping when [n*p] is small (O(np) expected) and a
    normal-approximation rejection otherwise; exact in the first
    regime, and the second regime is only used by percolation sweeps
    where a relative error of ~1e-3 in tail probabilities is
    irrelevant next to Monte-Carlo noise. *)

val exponential : Rng.t -> float -> float
(** [exponential rng lambda] draws from Exp(lambda), [lambda > 0]. *)

val normal : Rng.t -> float -> float -> float
(** [normal rng mu sigma] draws a Gaussian by Marsaglia's polar
    method. *)
