open Fn_graph

let max_nodes = 22

let popcount =
  let rec count x acc = if x = 0 then acc else count (x land (x - 1)) (acc + 1) in
  fun x -> count x 0

let check g =
  let n = Graph.num_nodes g in
  if n < 2 then invalid_arg "Exact: need at least 2 nodes";
  if n > max_nodes then invalid_arg "Exact: graph too large for exhaustive search";
  n

let neighbor_masks g =
  let n = Graph.num_nodes g in
  Array.init n (fun v -> Graph.fold_neighbors g v (fun acc w -> acc lor (1 lsl w)) 0)

let set_of_mask n mask =
  let out = Bitset.create n in
  for v = 0 to n - 1 do
    if mask lsr v land 1 = 1 then Bitset.add out v
  done;
  out

let node_expansion g =
  let n = check g in
  let nbr = neighbor_masks g in
  let total = 1 lsl n in
  (* hood.(u) = union of neighbourhoods of members of u, built from the
     lowest set bit in O(1) per subset *)
  let hood = Array.make total 0 in
  let best_num = ref max_int and best_den = ref 1 and best_mask = ref 1 in
  for mask = 1 to total - 1 do
    let low = mask land -mask in
    let low_idx = popcount (low - 1) in
    let rest = mask lxor low in
    hood.(mask) <- hood.(rest) lor nbr.(low_idx);
    let size = popcount mask in
    if 2 * size <= n then begin
      let boundary = popcount (hood.(mask) land lnot mask) in
      (* compare boundary/size < best_num/best_den without floats *)
      if boundary * !best_den < !best_num * size then begin
        best_num := boundary;
        best_den := size;
        best_mask := mask
      end
    end
  done;
  let set = set_of_mask n !best_mask in
  {
    Cut.set;
    value = float_of_int !best_num /. float_of_int !best_den;
    objective = Cut.Node;
  }

let edge_expansion g =
  let n = check g in
  let nbr = neighbor_masks g in
  let total = 1 lsl n in
  let best_num = ref max_int and best_den = ref 1 and best_mask = ref 1 in
  for mask = 1 to total - 2 do
    let size = popcount mask in
    let small = min size (n - size) in
    (* by symmetry only score masks whose described side is the small
       one; when n is even both sides tie, either works *)
    if 2 * size <= n then begin
      let crossing = ref 0 in
      let rem = ref mask in
      while !rem <> 0 do
        let low = !rem land - !rem in
        let v = popcount (low - 1) in
        crossing := !crossing + popcount (nbr.(v) land lnot mask);
        rem := !rem lxor low
      done;
      if !crossing * !best_den < !best_num * small then begin
        best_num := !crossing;
        best_den := small;
        best_mask := mask
      end
    end
  done;
  let set = set_of_mask n !best_mask in
  {
    Cut.set;
    value = float_of_int !best_num /. float_of_int !best_den;
    objective = Cut.Edge;
  }
