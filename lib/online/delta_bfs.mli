open Fn_graph

(** Bounded-radius BFS with generation-stamped scratch.

    The online engine runs thousands of small local traversals per
    churn batch.  {!Bfs.ball_grower} allocates O(n) per creation,
    which would dominate at that call rate, so this module keeps one
    O(n) scratch (distance, stamp, queue) per view and resets it by
    bumping a generation counter — each traversal costs only the
    nodes it actually touches.  Works on both {!Gview.t} arms: the
    view's neighbor iterator is bound once at {!create}, and each
    traversal is one loop over it. *)

type t

val create : Gview.t -> t
(** One-time O(n) allocation against a fixed view. *)

val survey : t -> alive:Bitset.t -> ?into:Bitset.t -> radius:int -> int -> int * int
(** [survey t ~alive ~radius v] is [(s, b)] for the alive-restricted
    ball of radius [radius] around [v]: [s] counts alive nodes at
    distance <= [radius] from [v] (members of the ball, [v] included),
    [b] counts alive nodes at distance exactly [radius + 1] — the
    ball's node boundary within the alive subgraph.  [into], when
    given, receives the ball's members ([Bitset.add] only; pass a
    cleared set).  The traversal never expands past the boundary ring,
    so cost is O(ball + ring), independent of n.  [v] must be alive. *)

val region : t -> radius:int -> sources:int list -> (int -> unit) -> unit
(** [region t ~radius ~sources f] calls [f] exactly once on every node
    within {e unrestricted} graph distance [radius] of some source
    (sources included, deduplicated).  This is the dirty-region stamp:
    a radius-r certificate depends only on aliveness within distance
    r + 1 of its center, so re-surveying [region ~radius:(r + 1)]
    around a batch's changed nodes restores every invalidated
    candidate. *)
