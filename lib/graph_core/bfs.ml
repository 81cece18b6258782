let is_alive alive v =
  match alive with None -> true | Some mask -> Bitset.mem mask v

let check_src n alive src =
  if src < 0 || src >= n then invalid_arg "Bfs: source out of range";
  if not (is_alive alive src) then invalid_arg "Bfs: source not alive"

(* Frontiers are flat int-array ring buffers with head/tail cursors:
   every node is enqueued at most once, so capacity n never wraps and
   a traversal costs one array allocation instead of a heap cell per
   push (Queue.t).  [head = tail] means empty.

   Each traversal binds [Gview.iter_neighbors view] once and runs one
   loop over it, on either arm of the view. *)

let multi_source_distances ?alive view srcs =
  let iter = Gview.iter_neighbors view in
  let n = Gview.num_nodes view in
  let dist = Array.make n (-1) in
  let queue = Array.make (max 1 n) 0 in
  let head = ref 0 and tail = ref 0 in
  Array.iter
    (fun s ->
      check_src n alive s;
      if dist.(s) < 0 then begin
        dist.(s) <- 0;
        queue.(!tail) <- s;
        incr tail
      end)
    srcs;
  let visit u v =
    if dist.(v) < 0 && is_alive alive v then begin
      dist.(v) <- dist.(u) + 1;
      queue.(!tail) <- v;
      incr tail
    end
  in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    iter u (fun v -> visit u v)
  done;
  dist

let distances ?alive view src = multi_source_distances ?alive view [| src |]

let reachable ?alive view src =
  let dist = distances ?alive view src in
  let out = Bitset.create (Gview.num_nodes view) in
  Array.iteri (fun v d -> if d >= 0 then Bitset.add out v) dist;
  out

let tree ?alive g src =
  let n = Graph.num_nodes g in
  check_src n alive src;
  let parent = Array.make n (-1) in
  let queue = Array.make (max 1 n) 0 in
  let head = ref 0 and tail = ref 0 in
  parent.(src) <- src;
  queue.(0) <- src;
  tail := 1;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Graph.iter_neighbors g u (fun v ->
        if parent.(v) < 0 && is_alive alive v then begin
          parent.(v) <- u;
          queue.(!tail) <- v;
          incr tail
        end)
  done;
  parent

let ball ?alive view src r =
  let iter = Gview.iter_neighbors view in
  let n = Gview.num_nodes view in
  check_src n alive src;
  let dist = Array.make n (-1) in
  let out = Bitset.create n in
  let queue = Array.make (max 1 n) 0 in
  let head = ref 0 and tail = ref 0 in
  dist.(src) <- 0;
  Bitset.add out src;
  queue.(0) <- src;
  tail := 1;
  let visit u v =
    if dist.(v) < 0 && is_alive alive v then begin
      dist.(v) <- dist.(u) + 1;
      Bitset.add out v;
      queue.(!tail) <- v;
      incr tail
    end
  in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    if dist.(u) < r then iter u (fun v -> visit u v)
  done;
  out

(* Resumable ball growth: the frontier state persists between calls,
   so growing a ball through doubling size targets (Estimate's
   geometric candidate schedule) traverses each node once overall
   instead of restarting the BFS per target. *)
type ball_grower = {
  iter : int -> (int -> unit) -> unit;
  alive : Bitset.t option;
  seen : bool array;
  queue : int array;
  mutable head : int;
  mutable tail : int;
  ball : Bitset.t;
  mutable size : int;
}

let ball_grower ?alive view src =
  let n = Gview.num_nodes view in
  check_src n alive src;
  let t =
    {
      iter = Gview.iter_neighbors view;
      alive;
      seen = Array.make n false;
      queue = Array.make (max 1 n) 0;
      head = 0;
      tail = 1;
      ball = Bitset.create n;
      size = 0;
    }
  in
  t.seen.(src) <- true;
  t.queue.(0) <- src;
  t

let ball_size t = t.size

let ball_exhausted t = t.head >= t.tail

let grow_ball t k =
  let expand v =
    if (not t.seen.(v)) && is_alive t.alive v then begin
      t.seen.(v) <- true;
      t.queue.(t.tail) <- v;
      t.tail <- t.tail + 1
    end
  in
  while t.size < k && t.head < t.tail do
    let u = t.queue.(t.head) in
    t.head <- t.head + 1;
    Bitset.add t.ball u;
    t.size <- t.size + 1;
    t.iter u expand
  done;
  Bitset.copy t.ball

let ball_of_size ?alive view src k = grow_ball (ball_grower ?alive view src) k

let eccentricity ?alive view src =
  let dist = distances ?alive view src in
  Array.fold_left max 0 dist

let path_to ~parents target =
  if target < 0 || target >= Array.length parents || parents.(target) < 0 then raise Not_found;
  let rec walk v acc = if parents.(v) = v then v :: acc else walk parents.(v) (v :: acc) in
  walk target []
