open Fn_graph
open Fn_prng

(** A Content-Addressable Network (CAN) overlay.

    The paper's conclusion argues that CAN behaves like a
    d-dimensional mesh in its steady state, so its fault tolerance
    follows from the span results.  This module implements the actual
    CAN construction (Ratnasamy et al., SIGCOMM 2001): the
    d-dimensional unit torus is partitioned into zones; a joining node
    picks a random point and splits the owning zone in half along its
    widest dimension; two nodes are overlay neighbours iff their zones
    abut in one dimension and overlap in all others (with
    wraparound).

    Splits are by exact halving, so all zone bounds are dyadic
    rationals and the abutment tests below are exact float
    comparisons. *)

type zone = {
  lo : float array;
  hi : float array;  (** half-open box [lo, hi) per dimension *)
}

type t

val create : int -> t
(** [create d] starts a CAN over the d-dimensional torus with a single
    node owning everything; requires [1 <= d <= 10]. *)

val zone : t -> int -> zone

val join : Rng.t -> t -> int
(** Add one node at a uniformly random point; returns its id.  The
    previous owner's zone is halved along its widest dimension. *)

val build : Rng.t -> d:int -> n:int -> t
(** A CAN grown by [n-1] random joins. *)

val graph : t -> Graph.t
(** The overlay graph on the current node set. *)

val are_neighbors : t -> int -> int -> bool
(** The zone-abutment predicate used by {!graph}. *)

val zone_volume : t -> int -> float

val balance : t -> float
(** Max zone volume / min zone volume — a measure of how far from the
    ideal mesh the overlay currently is (1.0 is perfectly balanced). *)
