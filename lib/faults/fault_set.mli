open Fn_graph

(** A static node-fault pattern over a graph.

    The faulty graph G_f of the paper is represented as the original
    graph plus an [alive] mask; nothing is ever rebuilt. *)

type t = {
  faulty : Bitset.t;
  alive : Bitset.t;  (** complement of [faulty] *)
}

val of_faulty : int -> Bitset.t -> t
(** [of_faulty n faulty] for a graph with [n] nodes. *)

val of_faulty_list : int -> int list -> t
val of_faulty_array : int -> int array -> t
val none : int -> t
(** No faults. *)

val count : t -> int
(** Number of faulty nodes. *)

val alive_count : t -> int
