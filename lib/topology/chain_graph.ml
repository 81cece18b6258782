open Fn_graph

type t = { graph : Graph.t; base : Graph.t; k : int; base_edges : (int * int) array }

let build base ~k =
  if k < 2 || k mod 2 = 1 then invalid_arg "Chain_graph.build: k must be even and >= 2";
  let n_base = Graph.num_nodes base in
  let base_edges = Graph.edges base in
  let m = Array.length base_edges in
  let n = n_base + (m * k) in
  let b = Builder.create n in
  Array.iteri
    (fun j (u, v) ->
      let base_id = n_base + (j * k) in
      Builder.add_edge b u base_id;
      for i = 0 to k - 2 do
        Builder.add_edge b (base_id + i) (base_id + i + 1)
      done;
      Builder.add_edge b (base_id + k - 1) v)
    base_edges;
  { graph = Builder.to_graph b; base; k; base_edges }

let chain_centers t =
  let n_base = Graph.num_nodes t.base in
  Array.mapi (fun j _ -> n_base + (j * t.k) + (t.k / 2)) t.base_edges

let expansion_prediction t = 2.0 /. float_of_int t.k

let claim24_witness t ~base_set =
  let n_base = Graph.num_nodes t.base in
  if Bitset.universe base_set <> n_base then
    invalid_arg "Chain_graph.claim24_witness: base universe mismatch";
  let out = Bitset.create (Graph.num_nodes t.graph) in
  Bitset.iter (Bitset.add out) base_set;
  Array.iteri
    (fun j (u, v) ->
      let chain = Array.init t.k (fun i -> n_base + (j * t.k) + i) in
      let u_in = Bitset.mem base_set u and v_in = Bitset.mem base_set v in
      if u_in && v_in then Array.iter (Bitset.add out) chain
      else if u_in then
        (* the chain runs from u's side (index 0) towards v *)
        for i = 0 to (t.k / 2) - 1 do
          Bitset.add out chain.(i)
        done
      else if v_in then
        for i = t.k - (t.k / 2) to t.k - 1 do
          Bitset.add out chain.(i)
        done)
    t.base_edges;
  out
