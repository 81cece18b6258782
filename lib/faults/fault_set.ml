open Fn_graph

type t = { faulty : Bitset.t; alive : Bitset.t }

let of_faulty n faulty =
  if Bitset.universe faulty <> n then invalid_arg "Fault_set.of_faulty: universe mismatch";
  { faulty = Bitset.copy faulty; alive = Bitset.complement faulty }

let of_faulty_list n xs = of_faulty n (Bitset.of_list n xs)

let of_faulty_array n xs = of_faulty n (Bitset.of_array n xs)

let none n = of_faulty n (Bitset.create n)

let count t = Bitset.cardinal t.faulty

let alive_count t = Bitset.cardinal t.alive
