open Fn_graph

type t = {
  iter : int -> (int -> unit) -> unit;
  n : int;
  dist : int array;
  stamp : int array;
  queue : int array;
  mutable gen : int;
}

let create view =
  let n = Gview.num_nodes view in
  {
    iter = Gview.iter_neighbors view;
    n;
    dist = Array.make (max 1 n) 0;
    stamp = Array.make (max 1 n) 0;
    queue = Array.make (max 1 n) 0;
    gen = 0;
  }

(* Alive-restricted BFS from [src], bounded at depth radius + 1: nodes
   at distance <= radius form the ball (counted in [s], optionally
   collected into [into]); alive nodes first reached at exactly
   radius + 1 are the ball's node boundary (counted in [b]) and never
   expanded, so the traversal touches only the ball plus one ring. *)
let survey t ~alive ?into ~radius src =
  if src < 0 || src >= t.n then invalid_arg "Delta_bfs.survey: source out of range";
  if radius < 0 then invalid_arg "Delta_bfs.survey: negative radius";
  if not (Bitset.mem alive src) then invalid_arg "Delta_bfs.survey: source not alive";
  t.gen <- t.gen + 1;
  let gen = t.gen in
  let iter = t.iter and dist = t.dist and stamp = t.stamp and queue = t.queue in
  let head = ref 0 and tail = ref 1 in
  let s = ref 1 and b = ref 0 in
  stamp.(src) <- gen;
  dist.(src) <- 0;
  queue.(0) <- src;
  (match into with Some set -> Bitset.add set src | None -> ());
  let visit du v =
    if stamp.(v) <> gen && Bitset.mem alive v then begin
      stamp.(v) <- gen;
      let d = du + 1 in
      if d <= radius then begin
        dist.(v) <- d;
        incr s;
        (match into with Some set -> Bitset.add set v | None -> ());
        queue.(!tail) <- v;
        incr tail
      end
      else incr b
    end
  in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) in
    iter u (fun v -> visit du v)
  done;
  (!s, !b)

(* Unrestricted multi-source BFS bounded at depth [radius], calling
   [f] on every node reached (sources included).  Used to stamp out
   the dirty region around a churn batch: a radius-r certificate
   candidate depends only on aliveness within unrestricted distance
   r + 1 of its center, so marking N_{r+1}(changed) covers every
   candidate whose survey could have moved. *)
let region t ~radius ~sources f =
  if radius < 0 then invalid_arg "Delta_bfs.region: negative radius";
  t.gen <- t.gen + 1;
  let gen = t.gen in
  let iter = t.iter and dist = t.dist and stamp = t.stamp and queue = t.queue in
  let head = ref 0 and tail = ref 0 in
  List.iter
    (fun v ->
      if v < 0 || v >= t.n then invalid_arg "Delta_bfs.region: source out of range";
      if stamp.(v) <> gen then begin
        stamp.(v) <- gen;
        dist.(v) <- 0;
        queue.(!tail) <- v;
        incr tail;
        f v
      end)
    sources;
  let visit du v =
    if stamp.(v) <> gen then begin
      stamp.(v) <- gen;
      dist.(v) <- du + 1;
      queue.(!tail) <- v;
      incr tail;
      f v
    end
  in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) in
    if du < radius then iter u (fun v -> visit du v)
  done
