type t = { graph : Graph.t; to_parent : int array; of_parent : int array }

let induce g keep =
  let n = Graph.num_nodes g in
  if Bitset.universe keep <> n then invalid_arg "Subgraph.induce: universe mismatch";
  let to_parent = Bitset.to_array keep in
  let of_parent = Array.make n (-1) in
  Array.iteri (fun new_id old_id -> of_parent.(old_id) <- new_id) to_parent;
  let m = Array.length to_parent in
  (* count alive-alive degrees to size the CSR arrays exactly *)
  let deg = Array.make m 0 in
  for new_id = 0 to m - 1 do
    Graph.iter_neighbors g to_parent.(new_id) (fun w ->
        if of_parent.(w) >= 0 then deg.(new_id) <- deg.(new_id) + 1)
  done;
  let xadj = Array.make (m + 1) 0 in
  for v = 0 to m - 1 do
    xadj.(v + 1) <- xadj.(v) + deg.(v)
  done;
  let adj = Array.make xadj.(m) 0 in
  let cursor = Array.copy xadj in
  for new_id = 0 to m - 1 do
    (* parent rows are sorted and of_parent is monotone, so rows stay
       sorted without re-sorting *)
    Graph.iter_neighbors g to_parent.(new_id) (fun w ->
        let nw = of_parent.(w) in
        if nw >= 0 then begin
          adj.(cursor.(new_id)) <- nw;
          cursor.(new_id) <- cursor.(new_id) + 1
        end)
  done;
  { graph = Graph.unsafe_of_csr ~n:m ~xadj ~adj; to_parent; of_parent }
