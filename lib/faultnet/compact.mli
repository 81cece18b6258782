open Fn_graph
open Fn_prng

(** Compact sets (Section 3 of the paper).

    A set U is compact in G when both U and its complement induce
    connected subgraphs.  The span is a maximum over compact sets, and
    Prune2 culls the compactification K_G(S) of the low-expansion
    sets it finds (Lemma 3.3).

    {!is_compact} and {!compactify} do not depend on neighbor order,
    so they take a {!Gview.t} and agree exactly across its arms —
    Prune2's round loop culls compact sets from implicit topologies
    through them.  {!enumerate} and {!random_compact} work on a
    materialized {!Graph.t}. *)

val is_compact : ?alive:Bitset.t -> Gview.t -> Bitset.t -> bool
(** Both [u ∩ alive] and [alive \ u] must be non-empty and
    connected. *)

val compactify : ?alive:Bitset.t -> Gview.t -> Bitset.t -> Bitset.t
(** Lemma 3.3: for a connected S with |S| < |alive|/2, returns a
    compact set K_G(S) whose edge expansion is at most S's.  Raises
    [Invalid_argument] if S is not connected or not a proper
    subset. *)

val enumerate : Graph.t -> Bitset.t list
(** All compact sets of a connected graph with at most 20 nodes,
    by exhaustive subset enumeration.  Each compact pair {U, V\U}
    appears twice (once per side), matching the paper's definition
    where U ranges over all compact sets. *)

val random_compact : Rng.t -> ?alive:Bitset.t -> Graph.t -> target_size:int -> Bitset.t option
(** Sample a compact set of roughly the requested size: grow a random
    connected region, then absorb all complement components except
    the largest (which restores compactness while keeping the region
    connected).  Returns [None] when the alive part is disconnected
    or too small. *)
