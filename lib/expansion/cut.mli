open Fn_graph

(** Cuts and their expansion values.

    A cut is a node subset [u]; its quality depends on the objective:
    node expansion |Γ(U)|/|U| (adversarial-fault sections of the
    paper) or edge expansion |(U,V\U)|/min(|U|,|V\U|) (random-fault
    sections). *)

type objective = Node | Edge

type t = {
  set : Bitset.t;  (** the cut side U *)
  value : float;  (** expansion under [objective] *)
  objective : objective;
}

val make : ?alive:Bitset.t -> Gview.t -> objective -> Bitset.t -> t
(** Evaluate a set on either {!Gview.t} arm; raises
    [Invalid_argument] on empty sides (see {!Boundary}). *)

val better : t -> t -> t
(** The cut with the smaller value (ties: first). *)

val value_of : ?alive:Bitset.t -> Gview.t -> objective -> Bitset.t -> float
