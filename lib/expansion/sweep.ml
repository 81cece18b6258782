open Fn_graph

let best_prefix ?alive view ~score objective =
  let n = Gview.num_nodes view in
  if Array.length score <> n then invalid_arg "Sweep.best_prefix: score length mismatch";
  let iter = Gview.iter_neighbors view in
  let is_alive v = match alive with None -> true | Some m -> Bitset.mem m v in
  let order =
    let arr =
      match alive with None -> Array.init n Fun.id | Some m -> Bitset.to_array m
    in
    (* monomorphic score-then-index order: bare polymorphic compare on
       (float, int) tuples costs a C call and two tuple allocations
       per comparison in this sort hot path *)
    Array.sort
      (fun a b ->
        let c = Float.compare score.(a) score.(b) in
        if c <> 0 then c else Int.compare a b)
      arr;
    arr
  in
  let total = Array.length order in
  if total < 2 then invalid_arg "Sweep.best_prefix: need at least 2 alive nodes";
  let in_u = Array.make n false in
  (* count.(w): neighbours of w currently inside U *)
  let count = Array.make n 0 in
  let node_boundary = ref 0 in
  let edge_boundary = ref 0 in
  let best_val = ref infinity and best_k = ref 1 in
  for k = 0 to total - 1 do
    let v = order.(k) in
    (* v enters U *)
    if count.(v) > 0 then decr node_boundary;
    in_u.(v) <- true;
    iter v (fun w ->
        if is_alive w then begin
          if in_u.(w) then edge_boundary := !edge_boundary - 1
          else begin
            edge_boundary := !edge_boundary + 1;
            if count.(w) = 0 then incr node_boundary
          end;
          count.(w) <- count.(w) + 1
        end);
    let size = k + 1 in
    if 2 * size <= total then begin
      let value =
        match objective with
        | Cut.Node -> float_of_int !node_boundary /. float_of_int size
        | Cut.Edge -> float_of_int !edge_boundary /. float_of_int (min size (total - size))
      in
      if value < !best_val then begin
        best_val := value;
        best_k := size
      end
    end
  done;
  let set = Bitset.create n in
  for k = 0 to !best_k - 1 do
    Bitset.add set order.(k)
  done;
  { Cut.set; value = !best_val; objective }
