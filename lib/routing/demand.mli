open Fn_graph
open Fn_prng

(** Traffic workloads for the routing experiments: which (source,
    destination) pairs want to communicate.  The paper's motivation is
    that expansion measures a network's remaining bandwidth — these
    demands are what we push through faulty networks to check it. *)

val permutation : Rng.t -> ?alive:Bitset.t -> Graph.t -> (int * int) array
(** A random permutation workload on the alive nodes: every alive node
    sends one packet, every alive node receives one, no fixed
    points unless forced (an alive count of 1 yields the empty
    demand). *)
