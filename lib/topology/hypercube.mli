open Fn_graph

(** The d-dimensional Boolean hypercube: 2^d nodes, neighbours differ
    in one bit.  Its percolation threshold p* = 1/d (Ajtai, Komlós &
    Szemerédi) is one of the calibration targets of experiment E8. *)

val graph : int -> Graph.t
(** [graph d] is the hypercube of dimension [d]; requires
    [0 <= d <= 25]. *)
