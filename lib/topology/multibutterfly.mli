open Fn_graph
open Fn_prng

(** The multibutterfly network (Upfal; Leighton–Maggs).

    Like the butterfly, nodes are (level, row) pairs and packets
    descend one level per hop, but each "splitter" — the bipartite
    graph between a row-block at level l and each of its two target
    half-blocks at level l+1 — is a d-fold random matching instead of
    a single fixed edge.  The resulting splitter expansion is what
    makes the network tolerate Θ(n) worst-case faults with only O(f)
    lost inputs (the §1.1 results this paper builds on).

    [multiplicity] is the number of matchings per splitter direction
    (d = 1 collapses to a butterfly-like single random matching;
    d = 2 is the classic construction). *)

type t = {
  graph : Graph.t;
  k : int;  (** levels = k+1, rows = 2^k *)
  multiplicity : int;
}

val build : Rng.t -> k:int -> multiplicity:int -> t
(** Requires [1 <= k <= 16] and [multiplicity >= 1].  Nodes are
    numbered level-major like {!Butterfly.node}. *)
