open Fn_graph

type objective = Node | Edge

type t = { set : Bitset.t; value : float; objective : objective }

let value_of ?alive view objective u =
  match objective with
  | Node -> Boundary.node_expansion ?alive view u
  | Edge -> Boundary.edge_expansion ?alive view u

let make ?alive view objective u =
  { set = Bitset.copy u; value = value_of ?alive view objective u; objective }

let better a b = if b.value < a.value then b else a
