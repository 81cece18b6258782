open Fn_graph

(** The chain-replacement construction of Theorem 2.3.

    Given a base graph G (intended: a constant-degree expander) and an
    even chain length k, every edge of G is replaced by a path of k
    new "chain" nodes.  Claim 2.4 shows the result has node expansion
    Θ(1/k); removing the [m] chain-center nodes (one per original
    edge) shatters it into components of size <= δk/2 + 1 each —
    the adversary of Theorems 2.3 and 3.1.

    Node layout: ids [0 .. n_G-1] are the original nodes; chain nodes
    of the j-th base edge occupy the contiguous block
    [n_G + j*k .. n_G + (j+1)*k - 1], ordered from the smaller
    endpoint towards the larger. *)

type t = {
  graph : Graph.t;
  base : Graph.t;
  k : int;
  base_edges : (int * int) array;  (** j-th base edge, u < v *)
}

val build : Graph.t -> k:int -> t
(** Requires [k >= 2] and [k] even (as in the paper's proof). *)

val chain_centers : t -> int array
(** One node per base edge: the (k/2)-th node of its chain — exactly
    the fault set used in the proof of Theorem 2.3. *)

val expansion_prediction : t -> float
(** Claim 2.4's order-of-magnitude prediction 2/k for the node
    expansion of the chain graph. *)

val claim24_witness : t -> base_set:Bitset.t -> Bitset.t
(** The set U' from the proof of Claim 2.4: a base-node set U together
    with, for every chain leaving U, the k/2 chain nodes nearest the
    U endpoint (whole chains for internal edges).  Its boundary in H
    is exactly one chain node per base edge leaving U, so
    α(U') = |Γ_base(U)-ish| / |U'| <= 2/k.  [base_set] is a set over
    the base graph's nodes. *)
