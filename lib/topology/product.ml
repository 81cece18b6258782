open Fn_graph

let node ~h_size u1 u2 = (u1 * h_size) + u2

let cartesian g h =
  let ng = Graph.num_nodes g and nh = Graph.num_nodes h in
  let b = Builder.create (ng * nh) in
  (* copy H inside every G-fiber *)
  for u1 = 0 to ng - 1 do
    Graph.iter_edges h (fun u2 v2 -> Builder.add_edge b (node ~h_size:nh u1 u2) (node ~h_size:nh u1 v2))
  done;
  (* copy G across fibers, one per H-node *)
  Graph.iter_edges g (fun u1 v1 ->
      for u2 = 0 to nh - 1 do
        Builder.add_edge b (node ~h_size:nh u1 u2) (node ~h_size:nh v1 u2)
      done);
  Builder.to_graph b
