open Fn_graph

(** Local improvement of a cut by single-node moves.

    First-improvement hill climbing in passes.  Each pass fixes its
    candidate list at the start: every member of U and every alive
    non-member adjacent to one, walked in the reverse of the order they
    are met (members ascending, each followed by its neighbors in
    adjacency order), each node once.  A candidate moves, in or out of
    U, when the move keeps 1 <= |U| and 2|U| <= the alive count and
    its value beats the current one by more than 1e-12; a move whose
    value is undefined (an empty side, as in {!Cut.value_of}) is
    rejected.  Passes repeat until one accepts no move or the pass
    budget runs out.  This is an upper-bound refiner: the result is
    never worse than the input cut.

    After an O(n + edges out of U) set-up, evaluating a move costs
    O(degree of the moved node): the search keeps per-node
    counts of adjacent alive members, the node and edge boundaries and
    the side sizes, so the value is the same integer ratio
    {!Cut.value_of} would compute from scratch, bit for bit.  Dead
    members of U are inert: they never move and add nothing to the
    boundary, though |U| above counts them.

    The search runs on either {!Gview.t} arm.  Move values do not
    depend on neighbor order, but the candidate order does, so the
    result is deterministic per view and not promised equal to the
    materialized twin's (the order rule in {!Gview}). *)

val improve :
  ?alive:Bitset.t -> ?max_passes:int -> Gview.t -> Cut.t -> Cut.t
(** Defaults: [max_passes] 20. *)
