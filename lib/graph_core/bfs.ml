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

(* Resumable ball growth with counted boundaries.  One byte of state
   per node: unseen, frontier (queued, not yet collected) or ball
   (collected).  The ball is the queue prefix [0, head) in BFS order
   and the frontier the suffix [head, tail).  Collecting a node
   expands all of its neighbours, so once the source is collected
   every alive neighbour of the ball is queued: the frontier is
   exactly Γ(ball).  [cut] counts the alive edges with one endpoint in
   the ball; collecting u adds one per neighbour still outside and
   takes one away per neighbour already inside.  Each neighbour costs
   one state read, as a seen-flag test would.  The ball's set is built
   on demand: [members] holds the first [synced] collected nodes and
   catches up with the queue only when {!grow_ball} asks for the ball,
   so {!extend_ball} writes nothing but the state byte and the queue. *)
let unseen = '\000'

let frontier = '\001'

let collected = '\002'

type ball_grower = {
  iter : int -> (int -> unit) -> unit;
  alive : Bitset.t option;
  state : Bytes.t;
  queue : int array;
  mutable head : int;
  mutable tail : int;
  mutable cut : int;
  members : Bitset.t;
  mutable synced : int;
}

let start t src =
  Bytes.set t.state src frontier;
  t.queue.(0) <- src;
  t.head <- 0;
  t.tail <- 1;
  t.cut <- 0

let ball_grower ?alive view src =
  let n = Gview.num_nodes view in
  check_src n alive src;
  let t =
    {
      iter = Gview.iter_neighbors view;
      alive;
      state = Bytes.make n unseen;
      queue = Array.make (max 1 n) 0;
      head = 0;
      tail = 0;
      cut = 0;
      members = Bitset.create n;
      synced = 0;
    }
  in
  start t src;
  t

let restart_ball t src =
  check_src (Bytes.length t.state) t.alive src;
  for i = 0 to t.tail - 1 do
    Bytes.set t.state t.queue.(i) unseen
  done;
  for i = 0 to t.synced - 1 do
    Bitset.remove t.members t.queue.(i)
  done;
  t.synced <- 0;
  start t src

let ball_size t = t.head

let ball_node_boundary t = if t.head = 0 then 0 else t.tail - t.head

let ball_edge_boundary t = t.cut

let extend_ball t k =
  let state = t.state and queue = t.queue and alive = t.alive in
  let expand v =
    (* the literals are [unseen], [frontier] and [collected] *)
    match Bytes.get state v with
    | '\000' ->
      if is_alive alive v then begin
        Bytes.set state v frontier;
        queue.(t.tail) <- v;
        t.tail <- t.tail + 1;
        t.cut <- t.cut + 1
      end
    | '\001' -> t.cut <- t.cut + 1
    | _ -> t.cut <- t.cut - 1
  in
  while t.head < k && t.head < t.tail do
    let u = queue.(t.head) in
    t.head <- t.head + 1;
    Bytes.set state u collected;
    t.iter u expand
  done

let grow_ball t k =
  extend_ball t k;
  for i = t.synced to t.head - 1 do
    Bitset.add t.members t.queue.(i)
  done;
  t.synced <- t.head;
  Bitset.copy t.members

let ball_of_size ?alive view src k = grow_ball (ball_grower ?alive view src) k

let path_to ~parents target =
  if target < 0 || target >= Array.length parents || parents.(target) < 0 then raise Not_found;
  let rec walk v acc = if parents.(v) = v then v :: acc else walk parents.(v) (v :: acc) in
  walk target []
