let is_alive alive v =
  match alive with None -> true | Some mask -> Bitset.mem mask v

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
