open Fn_graph

type t = {
  view : Gview.t;
  n : int;
  alive : Bitset.t option;
  deg : int array;
  sqrt_deg : float array;
  row : Bytes.t;
  v1 : float array;
  domains : int;
}

(* Row classes, one byte per node in [row]: the matvec reads the class
   instead of probing the mask and the degree on every row. *)
let dead = '\000'

let isolated = '\001'

let interior = '\002'

(* Row ranges below this node count are not worth a pool barrier per
   matvec: the synchronization would cost more than the arithmetic. *)
let par_node_threshold = 1024

let create ?alive ?(domains = 1) view =
  let n = Gview.num_nodes view in
  let is_alive v = match alive with None -> true | Some m -> Bitset.mem m v in
  let iter = Gview.iter_neighbors view in
  let deg = Array.make n 0 in
  for v = 0 to n - 1 do
    if is_alive v then
      deg.(v) <-
        (match alive with
        | None -> Gview.degree view v
        | Some m ->
          let c = ref 0 in
          iter v (fun w -> if Bitset.mem m w then incr c);
          !c)
  done;
  let sqrt_deg = Array.map (fun d -> sqrt (float_of_int d)) deg in
  let row =
    Bytes.init n (fun v ->
        if not (is_alive v) then dead else if deg.(v) = 0 then isolated else interior)
  in
  (* trivial eigenvector of 2I - L: D^{1/2} 1, normalized *)
  let v1 = Array.make n 0.0 in
  let norm1 = sqrt (Array.fold_left (fun acc d -> acc +. float_of_int d) 0.0 deg) in
  if norm1 > 0.0 then
    for v = 0 to n - 1 do
      if is_alive v then v1.(v) <- sqrt_deg.(v) /. norm1
    done;
  { view; n; alive; deg; sqrt_deg; row; v1; domains }

let is_alive t v = Bytes.get t.row v <> dead

let alive_count t = match t.alive with None -> t.n | Some m -> Bitset.cardinal m

let dot t a b =
  let acc = ref 0.0 in
  for i = 0 to t.n - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

(* The one definition of the pre-scaled source: u_i = x_i / sqrt d_i
   on interior rows, 0 on dead and isolated ones.  [create] fixed the
   lengths of [row] and [sqrt_deg] to [n]. *)
let[@inline] scaled t i x =
  if Bytes.unsafe_get t.row i = interior then x /. Array.unsafe_get t.sqrt_deg i else 0.0

(* Gather-reduced row loops over the pre-scaled masked source [u]: per
   row one class byte, per edge a single [u] gather, no mask probe.
   They index without bounds checks: [create] fixed the lengths of
   [row], [sqrt_deg] and [v1], [with_matvec] that of [u], [apply]
   checks [src] and [dst], and the CSR invariant keeps [xadj] at n + 1
   entries and every [adj] entry below n.  A dead neighbor adds its 0
   where a branch would have skipped it; the accumulator starts at
   +0.0 and round-to-nearest addition can never turn it into -0.0, so
   that [+. 0.] leaves it unchanged bit for bit.
   Each row writes only its own [dst] entry, so disjoint ranges may
   run concurrently with bit-identical rows.  As it writes the rows,
   the loop sums dst_v * v1_v over its range in index order, which is
   [dot dst v1] when the range is the whole vector.  The CSR arm reads
   the flat arrays in place: a float accumulator captured by a
   neighbor closure would be boxed on every edge visit. *)
let csr_rows t xadj adj u src dst lo hi =
  let row = t.row and sqrt_deg = t.sqrt_deg and v1 = t.v1 in
  let dot = ref 0.0 in
  for v = lo to hi - 1 do
    let c = Bytes.unsafe_get row v in
    let y =
      if c = interior then begin
        (* two gathers per trip: (acc + a) + b is the one-at-a-time
           sum, in the same order, at half the loop overhead *)
        let acc = ref 0.0 in
        let k = ref (Array.unsafe_get xadj v) and stop = Array.unsafe_get xadj (v + 1) in
        while !k + 1 < stop do
          let a = Array.unsafe_get u (Array.unsafe_get adj !k) in
          let b = Array.unsafe_get u (Array.unsafe_get adj (!k + 1)) in
          acc := !acc +. a +. b;
          k := !k + 2
        done;
        if !k < stop then acc := !acc +. Array.unsafe_get u (Array.unsafe_get adj !k);
        Array.unsafe_get src v +. (!acc /. Array.unsafe_get sqrt_deg v)
      end
      else if c = isolated then Array.unsafe_get src v
      else 0.0
    in
    Array.unsafe_set dst v y;
    dot := !dot +. (y *. Array.unsafe_get v1 v)
  done;
  !dot

let implicit_rows t iter u src dst lo hi =
  let row = t.row and sqrt_deg = t.sqrt_deg and v1 = t.v1 in
  let dot = ref 0.0 in
  for v = lo to hi - 1 do
    let c = Bytes.unsafe_get row v in
    let y =
      if c = interior then begin
        let acc = ref 0.0 in
        iter v (fun w -> acc := !acc +. u.(w));
        Array.unsafe_get src v +. (!acc /. Array.unsafe_get sqrt_deg v)
      end
      else if c = isolated then Array.unsafe_get src v
      else 0.0
    in
    Array.unsafe_set dst v y;
    dot := !dot +. (y *. Array.unsafe_get v1 v)
  done;
  !dot

let scale_source t u src lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set u i (scaled t i (Array.unsafe_get src i))
  done

let check_length t name a =
  if Array.length a <> t.n then invalid_arg ("Spectral_op." ^ name ^ ": vector length <> n")

type matvec = {
  op : t;
  u : float array;  (** the pre-scaled source of the next apply *)
  rows : float array -> float array -> float array -> int -> int -> float;
  pool : Fn_parallel.Par.Pool.t option;
}

let with_matvec t f =
  let u = Array.make t.n 0.0 in
  let rows =
    match t.view with
    | Gview.Csr g -> csr_rows t (Graph.xadj g) (Graph.adj g)
    | Gview.Implicit r -> implicit_rows t r.Gview.iter_neighbors
  in
  if t.domains > 1 && t.n >= par_node_threshold then
    Fn_parallel.Par.Pool.with_pool ~domains:t.domains (fun pool ->
        f { op = t; u; rows; pool = Some pool })
  else f { op = t; u; rows; pool = None }

let apply m ~staged src dst =
  let t = m.op in
  check_length t "apply" src;
  check_length t "apply" dst;
  match m.pool with
  | None ->
    if not staged then scale_source t m.u src 0 t.n;
    m.rows m.u src dst 0 t.n
  | Some pool ->
    let chunk = (t.n + Fn_parallel.Par.Pool.size pool - 1) / Fn_parallel.Par.Pool.size pool in
    if not staged then
      Fn_parallel.Par.Pool.run pool (fun w ->
          let lo = w * chunk in
          let hi = min t.n (lo + chunk) in
          if lo < hi then scale_source t m.u src lo hi);
    Fn_parallel.Par.Pool.run pool (fun w ->
        let lo = w * chunk in
        let hi = min t.n (lo + chunk) in
        if lo < hi then ignore (m.rows m.u src dst lo hi));
    (* summing the chunks' partial sums would make the coefficient
       depend on the chunking: one index-order pass keeps the
       sequential bits *)
    dot t dst t.v1

let with_apply t f = with_matvec t (fun m -> f (fun src dst -> apply m ~staged:false src dst))

let advance m z ~sq_norm y ~tol =
  let t = m.op and u = m.u in
  check_length t "advance" z;
  check_length t "advance" y;
  let nrm = sqrt sq_norm in
  let diff = ref 0.0 in
  for i = 0 to t.n - 1 do
    let zi = if nrm > 0.0 then Array.unsafe_get z i /. nrm else Array.unsafe_get z i in
    diff := !diff +. abs_float (zi -. Array.unsafe_get y i);
    Array.unsafe_set y i zi;
    Array.unsafe_set u i (scaled t i zi)
  done;
  !diff < tol

let deflate t extra y =
  List.iter
    (fun u ->
      let c = dot t y u in
      for i = 0 to t.n - 1 do
        y.(i) <- y.(i) -. (c *. u.(i))
      done)
    (t.v1 :: extra)

let normalize t y =
  let nrm = sqrt (dot t y y) in
  if nrm > 0.0 then
    for i = 0 to t.n - 1 do
      y.(i) <- y.(i) /. nrm
    done;
  nrm

(* deterministic pseudo-random start; the phase offset lets deflated
   or restarted iterations begin elsewhere *)
let cold_start t ~phase =
  Array.init t.n (fun i ->
      if is_alive t i then cos (float_of_int (((i + phase) * 7919) + phase)) else 0.0)

let embed t y =
  Array.init t.n (fun v ->
      if Bytes.get t.row v = interior then y.(v) /. t.sqrt_deg.(v) else 0.0)
