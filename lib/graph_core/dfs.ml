let is_alive alive v =
  match alive with None -> true | Some mask -> Bitset.mem mask v

let preorder ?alive g src =
  if src < 0 || src >= Graph.num_nodes g then invalid_arg "Dfs.preorder: source out of range";
  if not (is_alive alive src) then invalid_arg "Dfs.preorder: source not alive";
  let n = Graph.num_nodes g in
  let seen = Array.make n false in
  let order = ref [] in
  let count = ref 0 in
  let stack = Stack.create () in
  Stack.push src stack;
  while not (Stack.is_empty stack) do
    let u = Stack.pop stack in
    if not seen.(u) then begin
      seen.(u) <- true;
      order := u :: !order;
      incr count;
      (* push in reverse so lower-numbered neighbours pop first *)
      Graph.rev_iter_neighbors g u (fun v ->
          if (not seen.(v)) && is_alive alive v then Stack.push v stack)
    end
  done;
  let out = Array.make !count 0 in
  List.iteri (fun i v -> out.(!count - 1 - i) <- v) !order;
  out

(* Reachability is order-insensitive, so it needs no reverse
   iteration: either arm's neighbor order gives the same set. *)
let reachable ?alive view src =
  if src < 0 || src >= Gview.num_nodes view then
    invalid_arg "Dfs.reachable: source out of range";
  if not (is_alive alive src) then invalid_arg "Dfs.reachable: source not alive";
  let iter = Gview.iter_neighbors view in
  let out = Bitset.create (Gview.num_nodes view) in
  let stack = Stack.create () in
  Bitset.add out src;
  Stack.push src stack;
  while not (Stack.is_empty stack) do
    let u = Stack.pop stack in
    iter u (fun v ->
        if (not (Bitset.mem out v)) && is_alive alive v then begin
          Bitset.add out v;
          Stack.push v stack
        end)
  done;
  out

let is_connected_subset view s =
  match Bitset.choose s with
  | None -> true
  | Some src ->
    let r = reachable ~alive:s view src in
    Bitset.cardinal r = Bitset.cardinal s

let forest ?alive g =
  let n = Graph.num_nodes g in
  let parent = Array.make n (-1) in
  let stack = Stack.create () in
  for root = 0 to n - 1 do
    if parent.(root) < 0 && is_alive alive root then begin
      parent.(root) <- root;
      Stack.push root stack;
      while not (Stack.is_empty stack) do
        let u = Stack.pop stack in
        Graph.iter_neighbors g u (fun v ->
            if parent.(v) < 0 && is_alive alive v then begin
              parent.(v) <- u;
              Stack.push v stack
            end)
      done
    end
  done;
  parent
