(* A small mutable residual network: directed arcs in pairs (arc k and
   its reverse k lxor 1), unit or larger capacities. *)

type residual = {
  n : int;
  head : int array;  (* arc -> target node *)
  cap : int array;  (* arc -> remaining capacity *)
  first : int list array;  (* node -> outgoing arc ids *)
}

(* arcs are accumulated then frozen *)
type builder = {
  bn : int;
  mutable heads : int list;
  mutable caps : int list;
  mutable count : int;
  out : int list array;
}

let new_builder n = { bn = n; heads = []; caps = []; count = 0; out = Array.make n [] }

let add_arc b u v c =
  (* forward arc *)
  b.heads <- v :: b.heads;
  b.caps <- c :: b.caps;
  b.out.(u) <- b.count :: b.out.(u);
  b.count <- b.count + 1;
  (* reverse arc *)
  b.heads <- u :: b.heads;
  b.caps <- 0 :: b.caps;
  b.out.(v) <- b.count :: b.out.(v);
  b.count <- b.count + 1

let add_undirected b u v =
  (* one arc pair per direction so each undirected edge carries at
     most one unit in either direction *)
  add_arc b u v 1;
  add_arc b v u 1

let freeze b =
  let head = Array.make b.count 0 and cap = Array.make b.count 0 in
  List.iteri (fun i h -> head.(b.count - 1 - i) <- h) b.heads;
  List.iteri (fun i c -> cap.(b.count - 1 - i) <- c) b.caps;
  { n = b.bn; head; cap; first = b.out }

(* BFS augmentation; returns the flow pushed (0 or 1 per round on unit
   networks, but written generally). *)
let augment r src dst =
  let parent_arc = Array.make r.n (-1) in
  let visited = Array.make r.n false in
  let queue = Queue.create () in
  visited.(src) <- true;
  Queue.add src queue;
  (try
     while not (Queue.is_empty queue) do
       let u = Queue.pop queue in
       List.iter
         (fun a ->
           let v = r.head.(a) in
           if (not visited.(v)) && r.cap.(a) > 0 then begin
             visited.(v) <- true;
             parent_arc.(v) <- a;
             if v = dst then raise Exit;
             Queue.add v queue
           end)
         r.first.(u)
     done
   with Exit -> ());
  if not visited.(dst) then 0
  else begin
    (* find bottleneck (always >= 1) and update the path *)
    let rec bottleneck v acc =
      if v = src then acc
      else begin
        let a = parent_arc.(v) in
        let u = r.head.(a lxor 1) in
        bottleneck u (min acc r.cap.(a))
      end
    in
    let delta = bottleneck dst max_int in
    let rec update v =
      if v <> src then begin
        let a = parent_arc.(v) in
        r.cap.(a) <- r.cap.(a) - delta;
        r.cap.(a lxor 1) <- r.cap.(a lxor 1) + delta;
        update r.head.(a lxor 1)
      end
    in
    update dst;
    delta
  end

let is_alive alive v = match alive with None -> true | Some m -> Bitset.mem m v

let check_endpoints ?alive g src dst =
  let n = Graph.num_nodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then invalid_arg "Maxflow: endpoint out of range";
  if src = dst then invalid_arg "Maxflow: endpoints must differ";
  if not (is_alive alive src && is_alive alive dst) then
    invalid_arg "Maxflow: endpoints must be alive"

let edge_residual ?alive g =
  let n = Graph.num_nodes g in
  let b = new_builder n in
  Graph.iter_edges g (fun u v ->
      if is_alive alive u && is_alive alive v then add_undirected b u v);
  freeze b

let run_flow r src dst =
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    let pushed = augment r src dst in
    if pushed = 0 then continue := false else total := !total + pushed
  done;
  !total

let max_flow ?alive g ~src ~dst =
  check_endpoints ?alive g src dst;
  let r = edge_residual ?alive g in
  run_flow r src dst

let vertex_disjoint_paths ?alive g ~src ~dst =
  check_endpoints ?alive g src dst;
  let n = Graph.num_nodes g in
  (* node splitting: v_in = 2v, v_out = 2v+1; interior nodes have a
     unit arc v_in -> v_out, endpoints unbounded *)
  let b = new_builder (2 * n) in
  for v = 0 to n - 1 do
    if is_alive alive v then begin
      let c = if v = src || v = dst then max_int / 4 else 1 in
      add_arc b (2 * v) ((2 * v) + 1) c
    end
  done;
  Graph.iter_edges g (fun u v ->
      if is_alive alive u && is_alive alive v then begin
        add_arc b ((2 * u) + 1) (2 * v) 1;
        add_arc b ((2 * v) + 1) (2 * u) 1
      end);
  let r = freeze b in
  run_flow r ((2 * src) + 1) (2 * dst)

let edge_connectivity ?alive g =
  let n = Graph.num_nodes g in
  let alive_list = ref [] in
  for v = n - 1 downto 0 do
    if is_alive alive v then alive_list := v :: !alive_list
  done;
  match !alive_list with
  | [] | [ _ ] -> 0
  | s0 :: rest ->
    List.fold_left (fun acc t -> min acc (max_flow ?alive g ~src:s0 ~dst:t)) max_int rest
