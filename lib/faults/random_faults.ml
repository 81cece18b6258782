open Fn_graph
open Fn_prng

let nodes_iid rng g p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Random_faults.nodes_iid: p out of [0,1]";
  let n = Graph.num_nodes g in
  let faulty = Bitset.create n in
  for v = 0 to n - 1 do
    if Rng.bernoulli rng p then Bitset.add faulty v
  done;
  Fault_set.of_faulty n faulty

let nodes_exact rng g f =
  let n = Graph.num_nodes g in
  if f < 0 || f > n then invalid_arg "Random_faults.nodes_exact: f out of range";
  Fault_set.of_faulty_array n (Rng.sample rng n f)
