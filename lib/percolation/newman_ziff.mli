open Fn_graph
open Fn_prng

(** Newman–Ziff percolation sweeps.

    A single run inserts sites (or bonds) one at a time in random
    order, maintaining the largest cluster with a union-find, which
    yields the whole curve "largest component fraction vs number of
    occupied sites/bonds" in O((n + m) α(n)) — far cheaper than
    re-sampling the graph at every probability.  Canonical-ensemble
    values γ(p) are obtained by evaluating the curve at k = round(p·N)
    (the binomial distribution concentrates tightly for our sizes;
    Monte-Carlo noise dominates the smoothing error). *)

type curve = {
  occupied_largest : int array;
  (** index k: largest cluster size after k+1 occupations *)
  total : int;  (** number of sites (or bonds) *)
  n : int;  (** number of nodes of the graph *)
}

val site_run : ?obs:Fn_obs.Sink.t -> Rng.t -> Gview.t -> curve
(** One site-percolation sweep: nodes appear in random order; an edge
    is live when both endpoints are occupied.  Curves are
    byte-identical across {!Gview.t} arms: cluster sizes do not depend
    on neighbor order.  An enabled [obs] sink gets one
    ["percolation.sweep"] instant per completed sweep — progress
    reporting when many sweeps run in parallel. *)

val bond_run : ?obs:Fn_obs.Sink.t -> Rng.t -> Gview.t -> curve
(** One bond-percolation sweep: all nodes present, edges appear in
    random order — the G^(p) model of the paper's Section 1.1.  The
    implicit arm collects the flat endpoint array from the generator
    (O(m) tuples — inherent to the random edge order; no CSR structure
    is built) and sorts it into [Graph.edges] order, so the same rng
    yields the same curve as the materialized twin. *)

val gamma_at : curve -> float -> float
(** [gamma_at c p]: largest-component fraction of the {e node} count
    when each site/bond is occupied with probability [p]. *)
