type t = { n : int; xadj : int array; adj : int array }

(* Monomorphic lexicographic order on int pairs: keeps edge sorts off
   the polymorphic-compare C call (see faultnet-lint no-poly-compare). *)
let compare_int_pair (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

let num_nodes t = t.n

let num_edges t = Array.length t.adj / 2

let degree t v =
  if v < 0 || v >= t.n then invalid_arg "Graph.degree: node out of range";
  t.xadj.(v + 1) - t.xadj.(v)

let max_degree t =
  let best = ref 0 in
  for v = 0 to t.n - 1 do
    let d = t.xadj.(v + 1) - t.xadj.(v) in
    if d > !best then best := d
  done;
  !best

let min_degree t =
  if t.n = 0 then 0
  else begin
    let best = ref max_int in
    for v = 0 to t.n - 1 do
      let d = t.xadj.(v + 1) - t.xadj.(v) in
      if d < !best then best := d
    done;
    !best
  end

let iter_neighbors t v f =
  for k = t.xadj.(v) to t.xadj.(v + 1) - 1 do
    f t.adj.(k)
  done

let fold_neighbors t v f init =
  let acc = ref init in
  for k = t.xadj.(v) to t.xadj.(v + 1) - 1 do
    acc := f !acc t.adj.(k)
  done;
  !acc

let has_edge t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg "Graph.has_edge: node out of range";
  let lo = ref t.xadj.(u) and hi = ref (t.xadj.(u + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = t.adj.(mid) in
    if w = v then found := true else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let iter_edges t f =
  for u = 0 to t.n - 1 do
    for k = t.xadj.(u) to t.xadj.(u + 1) - 1 do
      let v = t.adj.(k) in
      if u < v then f u v
    done
  done

let edges t =
  let out = Array.make (num_edges t) (0, 0) in
  let k = ref 0 in
  iter_edges t (fun u v ->
      out.(!k) <- (u, v);
      incr k);
  out

(* The one CSR construction path.  Every public constructor
   ([of_edges], [of_edge_array], [Builder.to_graph]) funnels through
   here: endpoints are validated in input order, normalized to
   [u < v], packed into single-int keys ([u * n + v]) so the dedupe
   sort is a flat monomorphic int sort (no tuple boxing, no
   polymorphic compare), and the adjacency array is filled sorted by
   construction — backward arcs first, then forward arcs, each pass in
   ascending key order — so no per-row re-sort is needed. *)
let of_endpoint_arrays_impl ~who n ~us ~vs ~len =
  if n < 0 then invalid_arg (who ^ ": negative node count");
  if n > 1 lsl 30 then invalid_arg (who ^ ": too many nodes for a materialized graph");
  if len < 0 || len > Array.length us || len > Array.length vs then
    invalid_arg (who ^ ": bad endpoint array length");
  let keys = Array.make len 0 in
  for i = 0 to len - 1 do
    let u = us.(i) and v = vs.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then invalid_arg (who ^ ": endpoint out of range");
    if u = v then invalid_arg (who ^ ": self-loop");
    let a = if u < v then u else v and b = if u < v then v else u in
    keys.(i) <- (a * n) + b
  done;
  Array.sort Int.compare keys;
  let m =
    let count = ref 0 in
    for i = 0 to len - 1 do
      if i = 0 || keys.(i - 1) <> keys.(i) then incr count
    done;
    !count
  in
  let deg = Array.make (max 1 n) 0 in
  for i = 0 to len - 1 do
    if i = 0 || keys.(i - 1) <> keys.(i) then begin
      let u = keys.(i) / n and v = keys.(i) mod n in
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1
    end
  done;
  let xadj = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    xadj.(v + 1) <- xadj.(v) + deg.(v)
  done;
  let adj = Array.make (2 * m) 0 in
  let cursor = Array.copy xadj in
  (* backward arcs (v <- u): for fixed v, sources u arrive ascending *)
  for i = 0 to len - 1 do
    if i = 0 || keys.(i - 1) <> keys.(i) then begin
      let u = keys.(i) / n and v = keys.(i) mod n in
      adj.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1
    end
  done;
  (* forward arcs (u -> v): targets v > u arrive ascending and land
     after every backward source u' < u, so rows end up sorted *)
  for i = 0 to len - 1 do
    if i = 0 || keys.(i - 1) <> keys.(i) then begin
      let u = keys.(i) / n and v = keys.(i) mod n in
      adj.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1
    end
  done;
  { n; xadj; adj }

let of_endpoint_arrays n ~us ~vs ~len =
  of_endpoint_arrays_impl ~who:"Graph.of_endpoint_arrays" n ~us ~vs ~len

let of_edge_array n es =
  let len = Array.length es in
  let us = Array.make len 0 and vs = Array.make len 0 in
  for i = 0 to len - 1 do
    let u, v = es.(i) in
    us.(i) <- u;
    vs.(i) <- v
  done;
  of_endpoint_arrays_impl ~who:"Graph.of_edge_array" n ~us ~vs ~len

let of_edges n es = of_edge_array n (Array.of_list es)

let unsafe_of_csr ~n ~xadj ~adj = { n; xadj; adj }

let xadj t = t.xadj

let adj t = t.adj

let empty n = { n; xadj = Array.make (n + 1) 0; adj = [||] }

let equal a b = a.n = b.n && a.xadj = b.xadj && a.adj = b.adj

let pp fmt t =
  Format.fprintf fmt "graph(n=%d, m=%d, deg=[%d,%d])" t.n (num_edges t) (min_degree t)
    (max_degree t)
