open Fn_graph

(** The k-dimensional (wrapped or unwrapped) butterfly network.

    Nodes are pairs (level, row) with 0 <= level <= k (unwrapped) or
    level in Z_k (wrapped), row in {0,1}^k.  Node (l, r) connects to
    (l+1, r) ("straight") and (l+1, r xor 2^l) ("cross").  The paper
    conjectures the butterfly has O(1) span (experiment E10). *)

val unwrapped : int -> Graph.t
(** [(k+1) * 2^k] nodes; requires [1 <= k <= 20]. *)

val node : k:int -> level:int -> row:int -> int
(** Linearisation used by both variants: [level * 2^k + row]. *)
