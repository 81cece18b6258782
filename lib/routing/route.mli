open Fn_graph

(** Static shortest-path routing and its load metrics.

    Given a demand, compute one shortest path per routable pair
    (restricted to an alive mask) and measure the classic triple the
    Leighton–Maggs–Rao theorem turns into a slowdown bound: dilation
    (longest path), edge congestion (most paths over one edge), and
    node congestion. *)

type t = {
  pairs : (int * int) array;  (** the demand, as given *)
  routes : int list array;  (** node sequence per pair; [] if unroutable *)
  unroutable : int;
}

val shortest : ?alive:Bitset.t -> Graph.t -> (int * int) array -> t
(** BFS per distinct source; pairs whose endpoints are dead or
    disconnected get an empty route and count as unroutable. *)

val routable_fraction : t -> float
(** 1.0 for an empty demand. *)

val dilation : t -> int
(** Longest route in edges; 0 if nothing is routable. *)

val edge_congestion : t -> int
(** Maximum number of routes using a single undirected edge. *)

val stretch : reference:t -> t -> float
(** Mean ratio of route lengths between a faulty routing and a
    fault-free [reference] over pairs routable in both (pair lists
    must match).  NaN if no common routable pair. *)
