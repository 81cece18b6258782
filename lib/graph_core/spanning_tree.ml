type tree = { root : int; parent : int array; nodes : int array }

let bfs_tree ?alive g root =
  let parent = Bfs.tree ?alive g root in
  let order = ref [] in
  let count = ref 0 in
  (* Recover BFS order by re-running distances; cheap and simple. *)
  let dist = Bfs.distances ?alive (Gview.Csr g) root in
  let nodes_with_dist = ref [] in
  Array.iteri (fun v d -> if d >= 0 then nodes_with_dist := (d, v) :: !nodes_with_dist) dist;
  let sorted = List.sort Graph.compare_int_pair !nodes_with_dist in
  List.iter
    (fun (_, v) ->
      order := v :: !order;
      incr count)
    sorted;
  let nodes = Array.make !count 0 in
  List.iteri (fun i v -> nodes.(!count - 1 - i) <- v) !order;
  { root; parent; nodes }

let num_edges t = max 0 (Array.length t.nodes - 1)

let tree_edges t =
  Array.fold_left
    (fun acc v -> if v = t.root then acc else (t.parent.(v), v) :: acc)
    [] t.nodes

let is_spanning g set t =
  let covered = Bitset.create (Graph.num_nodes g) in
  Array.iter (Bitset.add covered) t.nodes;
  Bitset.equal covered set
  && List.for_all (fun (u, v) -> Graph.has_edge g u v) (tree_edges t)

let total_weighted_length ~dist terminals =
  let k = Array.length terminals in
  if k <= 1 then 0
  else begin
    let in_tree = Array.make k false in
    let best = Array.make k max_int in
    in_tree.(0) <- true;
    for j = 1 to k - 1 do
      best.(j) <- dist.(terminals.(0)).(terminals.(j))
    done;
    let total = ref 0 in
    for _ = 1 to k - 1 do
      let pick = ref (-1) in
      for j = 0 to k - 1 do
        if (not in_tree.(j)) && (!pick < 0 || best.(j) < best.(!pick)) then pick := j
      done;
      let j = !pick in
      in_tree.(j) <- true;
      total := !total + best.(j);
      for l = 0 to k - 1 do
        if not in_tree.(l) then
          best.(l) <- min best.(l) dist.(terminals.(j)).(terminals.(l))
      done
    done;
    !total
  end
