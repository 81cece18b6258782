open Fn_prng

(** Global graph metrics used by reports and experiments.

    Exact distance-based metrics cost O(n·m); the [~samples] variants
    trade exactness for speed on large graphs and are marked as
    estimates. *)

val diameter : ?alive:Bitset.t -> Graph.t -> int
(** Largest finite pairwise distance among alive nodes, by BFS from
    every alive node; 0 for fewer than 2 alive nodes.  Disconnected
    pairs are ignored. *)

val diameter_estimate : ?alive:Bitset.t -> Rng.t -> ?sweeps:int -> Graph.t -> int
(** Double-sweep lower bound: BFS from a random node, then from the
    farthest node found, repeated [sweeps] times (default 4).  Exact
    on trees; never overestimates. *)

val mean_distance : ?alive:Bitset.t -> ?samples:int -> Rng.t -> Graph.t -> float
(** Average finite pairwise distance from [samples] BFS sources
    (default 32, capped by alive count).  NaN if no finite pair. *)

val clustering_coefficient : ?alive:Bitset.t -> Graph.t -> float
(** Mean local clustering coefficient over alive nodes of alive-degree
    >= 2 (0 if there are none). *)
