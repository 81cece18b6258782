type implicit = {
  n : int;
  max_degree : int;
  degree : int -> int;
  iter_neighbors : int -> (int -> unit) -> unit;
  has_edge : int -> int -> bool;
}

type t = Csr of Graph.t | Implicit of implicit

let implicit ~n ~max_degree ?degree ?has_edge iter_neighbors =
  if n < 0 then invalid_arg "Gview.implicit: negative node count";
  if max_degree < 0 then invalid_arg "Gview.implicit: negative max degree";
  let degree =
    match degree with
    | Some d -> d
    | None ->
      fun v ->
        let count = ref 0 in
        iter_neighbors v (fun _ -> incr count);
        !count
  in
  let has_edge =
    match has_edge with
    | Some h -> h
    | None ->
      fun u v ->
        let found = ref false in
        iter_neighbors u (fun w -> if w = v then found := true);
        !found
  in
  Implicit { n; max_degree; degree; iter_neighbors; has_edge }

let num_nodes = function Csr g -> Graph.num_nodes g | Implicit i -> i.n

let max_degree = function Csr g -> Graph.max_degree g | Implicit i -> i.max_degree

let degree t v =
  match t with
  | Csr g -> Graph.degree g v
  | Implicit i ->
    if v < 0 || v >= i.n then invalid_arg "Gview.degree: node out of range";
    i.degree v

(* The CSR iterator is eta-expanded on purpose: a closure of arity 2
   makes each [iter v f] in a kernel's loop one call into a direct call
   of [Graph.iter_neighbors], where the partial application
   [Graph.iter_neighbors g] would add a curried hop per node (measured
   at 7-9% on the 64x64-mesh BFS kernels). *)
let iter_neighbors = function
  | Csr g -> fun v f -> Graph.iter_neighbors g v f
  | Implicit i -> i.iter_neighbors

let has_edge t u v =
  match t with
  | Csr g -> Graph.has_edge g u v
  | Implicit i ->
    if u < 0 || u >= i.n || v < 0 || v >= i.n then
      invalid_arg "Gview.has_edge: node out of range";
    i.has_edge u v

let iter_edges t f =
  match t with
  | Csr g -> Graph.iter_edges g f
  | Implicit i ->
    for v = 0 to i.n - 1 do
      i.iter_neighbors v (fun w -> if v < w then f v w)
    done

let num_edges t =
  match t with
  | Csr g -> Graph.num_edges g
  | Implicit _ ->
    let count = ref 0 in
    iter_edges t (fun _ _ -> incr count);
    !count

let materialize = function
  | Csr g -> g
  | Implicit i ->
    let n = i.n in
    let fail fmt = Printf.ksprintf invalid_arg ("Gview.materialize: " ^^ fmt) in
    let xadj = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      let d = i.degree v in
      if d < 0 then fail "negative degree %d at node %d" d v;
      if d > i.max_degree then
        fail "degree %d at node %d exceeds declared max_degree %d" d v i.max_degree;
      xadj.(v + 1) <- xadj.(v) + d
    done;
    let adj = Array.make xadj.(n) 0 in
    let cursor = Array.copy xadj in
    for v = 0 to n - 1 do
      i.iter_neighbors v (fun w ->
          if w < 0 || w >= n then fail "neighbor %d of node %d out of range" w v;
          if w = v then fail "self-loop at node %d" v;
          if cursor.(v) >= xadj.(v + 1) then
            fail "node %d emits more neighbors than its degree %d" v (i.degree v);
          adj.(cursor.(v)) <- w;
          cursor.(v) <- cursor.(v) + 1)
    done;
    for v = 0 to n - 1 do
      if cursor.(v) <> xadj.(v + 1) then
        fail "node %d emits %d neighbors, degree says %d" v
          (cursor.(v) - xadj.(v))
          (xadj.(v + 1) - xadj.(v));
      let lo = xadj.(v) and len = xadj.(v + 1) - xadj.(v) in
      let row = Array.sub adj lo len in
      Array.sort Int.compare row;
      for k = 1 to len - 1 do
        if row.(k - 1) = row.(k) then fail "duplicate neighbor %d at node %d" row.(k) v
      done;
      Array.blit row 0 adj lo len
    done;
    let g = Graph.unsafe_of_csr ~n ~xadj ~adj in
    (* symmetry: every emitted arc needs its reverse; the sorted rows
       make the check a binary search per arc *)
    for v = 0 to n - 1 do
      for k = xadj.(v) to xadj.(v + 1) - 1 do
        let w = adj.(k) in
        if not (Graph.has_edge g w v) then fail "edge %d-%d has no reverse arc" v w
      done
    done;
    g
