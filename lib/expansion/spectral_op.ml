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

(* Gather-reduced row loops over the pre-scaled masked source
   [u = src / sqrt_deg] (zero on dead and isolated nodes): per row one
   class byte, per edge a single [u] gather, no mask probe.  A dead
   neighbor adds its 0 where a branch would have skipped it; the
   accumulator starts at +0.0 and round-to-nearest addition can never
   turn it into -0.0, so that [+. 0.] leaves it unchanged bit for bit.
   Each row touches only row-local state, so disjoint ranges may run
   concurrently with bit-identical results.  The CSR arm reads the
   flat arrays in place: a float accumulator captured by a neighbor
   closure would be boxed on every edge visit. *)
let csr_rows t xadj adj u src dst lo hi =
  let row = t.row and sqrt_deg = t.sqrt_deg in
  for v = lo to hi - 1 do
    let c = Bytes.get row v in
    if c = interior then begin
      let acc = ref 0.0 in
      for k = xadj.(v) to xadj.(v + 1) - 1 do
        acc := !acc +. u.(Array.unsafe_get adj k)
      done;
      dst.(v) <- src.(v) +. (!acc /. sqrt_deg.(v))
    end
    else dst.(v) <- (if c = isolated then src.(v) else 0.0)
  done

let implicit_rows t iter u src dst lo hi =
  let row = t.row and sqrt_deg = t.sqrt_deg in
  for v = lo to hi - 1 do
    let c = Bytes.get row v in
    if c = interior then begin
      let acc = ref 0.0 in
      iter v (fun w -> acc := !acc +. u.(w));
      dst.(v) <- src.(v) +. (!acc /. sqrt_deg.(v))
    end
    else dst.(v) <- (if c = isolated then src.(v) else 0.0)
  done

let scale_source t u src lo hi =
  let row = t.row and sqrt_deg = t.sqrt_deg in
  for i = lo to hi - 1 do
    u.(i) <- (if Bytes.get row i = interior then src.(i) /. sqrt_deg.(i) else 0.0)
  done

let with_apply t f =
  let u = Array.make t.n 0.0 in
  let rows =
    match t.view with
    | Gview.Csr g -> csr_rows t (Graph.xadj g) (Graph.adj g)
    | Gview.Implicit r -> implicit_rows t r.Gview.iter_neighbors
  in
  if t.domains > 1 && t.n >= par_node_threshold then
    Fn_parallel.Par.Pool.with_pool ~domains:t.domains (fun pool ->
        let workers = Fn_parallel.Par.Pool.size pool in
        let chunk = (t.n + workers - 1) / workers in
        f (fun src dst ->
            Fn_parallel.Par.Pool.run pool (fun w ->
                let lo = w * chunk in
                let hi = min t.n (lo + chunk) in
                if lo < hi then scale_source t u src lo hi);
            Fn_parallel.Par.Pool.run pool (fun w ->
                let lo = w * chunk in
                let hi = min t.n (lo + chunk) in
                if lo < hi then rows u src dst lo hi)))
  else
    f (fun src dst ->
        scale_source t u src 0 t.n;
        rows u src dst 0 t.n)

let dot t a b =
  let acc = ref 0.0 in
  for i = 0 to t.n - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

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
