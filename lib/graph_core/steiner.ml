type result = { nodes : Bitset.t; edge_count : int }

let node_count r = Bitset.cardinal r.nodes

(* Both algorithms work on a materialised induced subgraph when an
   alive mask is given; ids are translated back at the end. *)

let prepare ?alive g terminals =
  if Array.length terminals = 0 then invalid_arg "Steiner: no terminals";
  match alive with
  | None -> (g, terminals, None)
  | Some mask ->
    Array.iter
      (fun t ->
        if not (Bitset.mem mask t) then invalid_arg "Steiner: terminal not alive")
      terminals;
    let sub = Subgraph.induce g mask in
    let mapped = Array.map (fun t -> sub.Subgraph.of_parent.(t)) terminals in
    (sub.Subgraph.graph, mapped, Some sub)

let lift sub_opt n_parent nodes edge_count =
  match sub_opt with
  | None -> { nodes; edge_count }
  | Some sub ->
    let lifted = Bitset.create n_parent in
    Bitset.iter (fun v -> Bitset.add lifted sub.Subgraph.to_parent.(v)) nodes;
    { nodes = lifted; edge_count }

(* ---- 2-approximation ---- *)

let approx ?alive g terminals =
  let g', ts, sub_opt = prepare ?alive g terminals in
  let n = Graph.num_nodes g' in
  let t = Array.length ts in
  (* distances and BFS parents from every terminal *)
  let dist = Array.map (Bfs.distances (Gview.Csr g')) ts in
  Array.iteri
    (fun i d ->
      Array.iteri
        (fun j tj ->
          if d.(tj) < 0 then begin
            ignore (i, j);
            invalid_arg "Steiner.approx: terminals not connected"
          end)
        ts)
    dist;
  let parents = Array.map (fun s -> Bfs.tree g' s) ts in
  (* Prim MST over the terminal metric closure *)
  let in_tree = Array.make t false in
  let best = Array.make t max_int in
  let best_from = Array.make t 0 in
  in_tree.(0) <- true;
  for j = 1 to t - 1 do
    best.(j) <- dist.(0).(ts.(j));
    best_from.(j) <- 0
  done;
  let nodes = Bitset.create n in
  Bitset.add nodes ts.(0);
  for _ = 1 to t - 1 do
    let pick = ref (-1) in
    for j = 0 to t - 1 do
      if (not in_tree.(j)) && (!pick < 0 || best.(j) < best.(!pick)) then pick := j
    done;
    let j = !pick in
    in_tree.(j) <- true;
    (* walk the BFS tree of terminal best_from.(j) from ts.(j) back to it *)
    let path = Bfs.path_to ~parents:parents.(best_from.(j)) ts.(j) in
    List.iter (Bitset.add nodes) path;
    for l = 0 to t - 1 do
      if (not in_tree.(l)) && dist.(j).(ts.(l)) < best.(l) then begin
        best.(l) <- dist.(j).(ts.(l));
        best_from.(l) <- j
      end
    done
  done;
  (* prune: spanning tree of the union, then drop non-terminal leaves *)
  let root = ts.(0) in
  let tree_parent = Bfs.tree ~alive:nodes g' root in
  let is_terminal = Array.make n false in
  Array.iter (fun s -> is_terminal.(s) <- true) ts;
  let child_count = Array.make n 0 in
  Bitset.iter
    (fun v -> if v <> root then child_count.(tree_parent.(v)) <- child_count.(tree_parent.(v)) + 1)
    nodes;
  let queue = Queue.create () in
  Bitset.iter
    (fun v -> if child_count.(v) = 0 && (not is_terminal.(v)) && v <> root then Queue.add v queue)
    nodes;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Bitset.remove nodes v;
    let p = tree_parent.(v) in
    child_count.(p) <- child_count.(p) - 1;
    if child_count.(p) = 0 && (not is_terminal.(p)) && p <> root then Queue.add p queue
  done;
  let edge_count = Bitset.cardinal nodes - 1 in
  lift sub_opt (Graph.num_nodes g) nodes edge_count

(* ---- Dreyfus-Wagner exact DP ---- *)

let infinity_cost = max_int / 4

let exact ?alive g terminals =
  let g', ts, sub_opt = prepare ?alive g terminals in
  let n = Graph.num_nodes g' in
  let t = Array.length ts in
  if t > 12 then invalid_arg "Steiner.exact: too many terminals (max 12)";
  let dist = Array.init n (Bfs.distances (Gview.Csr g')) in
  Array.iter
    (fun ti ->
      Array.iter
        (fun tj -> if dist.(ti).(tj) < 0 then invalid_arg "Steiner.exact: terminals not connected")
        ts)
    ts;
  let full = (1 lsl t) - 1 in
  (* dp.(mask).(v) = min edges of a tree spanning terminals(mask) ∪ {v} *)
  let dp = Array.make_matrix (full + 1) n infinity_cost in
  for i = 0 to t - 1 do
    for v = 0 to n - 1 do
      let d = dist.(ts.(i)).(v) in
      dp.(1 lsl i).(v) <- (if d < 0 then infinity_cost else d)
    done
  done;
  let d2 u v =
    let d = dist.(u).(v) in
    if d < 0 then infinity_cost else d
  in
  for mask = 1 to full do
    if mask land (mask - 1) <> 0 then begin
      (* merge step: partitions mask = s ⊎ other with the lowest
         terminal in s; enumerate sub over proper submasks of rest
         (including the empty one), s = sub ∪ {low} *)
      let low = mask land -mask in
      let rest = mask lxor low in
      let sub = ref ((rest - 1) land rest) in
      let continue = ref true in
      while !continue do
        let s = !sub lor low in
        let other = mask lxor s in
        for v = 0 to n - 1 do
          let c = dp.(s).(v) + dp.(other).(v) in
          if c < dp.(mask).(v) then dp.(mask).(v) <- c
        done;
        if !sub = 0 then continue := false else sub := (!sub - 1) land rest
      done;
      (* relax through shortest paths *)
      for v = 0 to n - 1 do
        for u = 0 to n - 1 do
          let c = dp.(mask).(u) + d2 u v in
          if c < dp.(mask).(v) then dp.(mask).(v) <- c
        done
      done
    end
  done;
  (* pick the best root and reconstruct the node set *)
  let root = ref 0 in
  for v = 1 to n - 1 do
    if dp.(full).(v) < dp.(full).(!root) then root := v
  done;
  let nodes = Bitset.create n in
  let add_path u v =
    (* walk from v to u following decreasing dist.(u) *)
    let cur = ref v in
    Bitset.add nodes v;
    while !cur <> u do
      let next = ref (-1) in
      Graph.iter_neighbors g' !cur (fun w ->
          if !next < 0 && dist.(u).(w) = dist.(u).(!cur) - 1 then next := w);
      assert (!next >= 0);
      Bitset.add nodes !next;
      cur := !next
    done
  in
  let rec expand mask v =
    Bitset.add nodes v;
    if mask land (mask - 1) = 0 then begin
      (* singleton: path from the terminal to v *)
      let i =
        let rec idx k = if mask lsr k land 1 = 1 then k else idx (k + 1) in
        idx 0
      in
      add_path ts.(i) v
    end
    else begin
      (* try relaxation transitions first *)
      let via = ref (-1) in
      for u = 0 to n - 1 do
        if !via < 0 && u <> v && dp.(mask).(u) + d2 u v = dp.(mask).(v) then via := u
      done;
      match !via with
      | u when u >= 0 ->
        add_path u v;
        expand mask u
      | _ ->
        (* must be a merge at v *)
        let low = mask land -mask in
        let rest = mask lxor low in
        let found = ref false in
        let sub = ref ((rest - 1) land rest) in
        let continue = ref true in
        while (not !found) && !continue do
          let s = !sub lor low in
          let other = mask lxor s in
          if dp.(s).(v) + dp.(other).(v) = dp.(mask).(v) then begin
            found := true;
            expand s v;
            expand other v
          end;
          if !sub = 0 then continue := false else sub := (!sub - 1) land rest
        done;
        assert !found
    end
  in
  expand full !root;
  let edge_count = dp.(full).(!root) in
  lift sub_opt (Graph.num_nodes g) nodes edge_count

let verify ?alive g terminals r =
  let n = Graph.num_nodes g in
  let ok_universe = Bitset.universe r.nodes = n in
  let all_terminals = Array.for_all (fun t -> Bitset.mem r.nodes t) terminals in
  let alive_ok =
    match alive with None -> true | Some mask -> Bitset.subset r.nodes mask
  in
  let connected = Dfs.is_connected_subset (Gview.Csr g) r.nodes in
  let tree_edges_ok = r.edge_count = Bitset.cardinal r.nodes - 1 in
  ok_universe && all_terminals && alive_ok && connected && tree_edges_ok
