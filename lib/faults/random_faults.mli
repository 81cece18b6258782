open Fn_graph
open Fn_prng

(** Random fault models (Section 3 of the paper). *)

val nodes_iid : Rng.t -> Graph.t -> float -> Fault_set.t
(** Each node fails independently with probability [p]. *)

val nodes_exact : Rng.t -> Graph.t -> int -> Fault_set.t
(** Exactly [f] faulty nodes, uniform among all f-subsets. *)
