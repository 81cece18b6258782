open Fn_graph
open Fn_prng

(** Random graph models. *)

val gnm : Rng.t -> int -> int -> Graph.t
(** Uniform graph with exactly [m] distinct edges (no loops). *)

val random_regular : Rng.t -> int -> int -> Graph.t
(** [random_regular rng n d] samples a simple d-regular graph by the
    configuration model with restarts (rejecting pairings that create
    loops or multi-edges).  Requires [n*d] even, [d < n].  Expected
    number of restarts is constant for fixed [d], so this is practical
    for the [d <= 8] used in our experiments.  Such graphs are
    expanders with high probability — they stand in for the paper's
    abstract expander family G(n). *)

val connected_random_regular : Rng.t -> int -> int -> Graph.t
(** Resample until connected (a.s. immediate for [d >= 3]). *)
