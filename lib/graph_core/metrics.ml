open Fn_prng

let alive_nodes ?alive g =
  match alive with
  | Some m -> Bitset.to_array m
  | None -> Array.init (Graph.num_nodes g) Fun.id

let diameter ?alive g =
  let nodes = alive_nodes ?alive g in
  if Array.length nodes < 2 then 0
  else begin
    let view = Gview.Csr g in
    let best = ref 0 in
    Array.iter
      (fun src ->
        let d = Bfs.distances ?alive view src in
        Array.iter (fun x -> if x > !best then best := x) d)
      nodes;
    !best
  end

let farthest_from ?alive g src =
  let d = Bfs.distances ?alive (Gview.Csr g) src in
  let best = ref src and best_d = ref 0 in
  Array.iteri
    (fun v x ->
      if x > !best_d then begin
        best := v;
        best_d := x
      end)
    d;
  (!best, !best_d)

let diameter_estimate ?alive rng ?(sweeps = 4) g =
  let nodes = alive_nodes ?alive g in
  if Array.length nodes < 2 then 0
  else begin
    let best = ref 0 in
    for _ = 1 to sweeps do
      let src = nodes.(Rng.int rng (Array.length nodes)) in
      let far, _ = farthest_from ?alive g src in
      let _, d = farthest_from ?alive g far in
      if d > !best then best := d
    done;
    !best
  end

let mean_distance ?alive ?(samples = 32) rng g =
  let nodes = alive_nodes ?alive g in
  let n = Array.length nodes in
  if n < 2 then nan
  else begin
    let k = min samples n in
    let picks = Rng.sample rng n k in
    let view = Gview.Csr g in
    let total = ref 0 and count = ref 0 in
    Array.iter
      (fun idx ->
        let d = Bfs.distances ?alive view nodes.(idx) in
        Array.iter
          (fun x ->
            if x > 0 then begin
              total := !total + x;
              incr count
            end)
          d)
      picks;
    if !count = 0 then nan else float_of_int !total /. float_of_int !count
  end

let clustering_coefficient ?alive g =
  let is_alive v = match alive with None -> true | Some m -> Bitset.mem m v in
  let nodes = alive_nodes ?alive g in
  let total = ref 0.0 and counted = ref 0 in
  Array.iter
    (fun v ->
      let nbrs =
        Graph.fold_neighbors g v (fun acc w -> if is_alive w then w :: acc else acc) []
      in
      let d = List.length nbrs in
      if d >= 2 then begin
        let links = ref 0 in
        let arr = Array.of_list nbrs in
        for i = 0 to d - 1 do
          for j = i + 1 to d - 1 do
            if Graph.has_edge g arr.(i) arr.(j) then incr links
          done
        done;
        total := !total +. (2.0 *. float_of_int !links /. float_of_int (d * (d - 1)));
        incr counted
      end)
    nodes;
  if !counted = 0 then 0.0 else !total /. float_of_int !counted
