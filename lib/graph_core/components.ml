type t = { labels : int array; sizes : int array; count : int }

let is_alive alive v =
  match alive with None -> true | Some mask -> Bitset.mem mask v

(* Root scan order (ascending node id) fixes the component ids, and
   membership is order-insensitive, so both Gview arms label the same
   topology identically. *)
let compute ?alive view =
  let iter = Gview.iter_neighbors view in
  let n = Gview.num_nodes view in
  let labels = Array.make n (-1) in
  let sizes = ref [] in
  let count = ref 0 in
  let stack = Stack.create () in
  for root = 0 to n - 1 do
    if labels.(root) < 0 && is_alive alive root then begin
      let id = !count in
      incr count;
      let size = ref 0 in
      labels.(root) <- id;
      Stack.push root stack;
      while not (Stack.is_empty stack) do
        let u = Stack.pop stack in
        incr size;
        iter u (fun v ->
            if labels.(v) < 0 && is_alive alive v then begin
              labels.(v) <- id;
              Stack.push v stack
            end)
      done;
      sizes := !size :: !sizes
    end
  done;
  let sizes_arr = Array.make !count 0 in
  List.iteri (fun i s -> sizes_arr.(!count - 1 - i) <- s) !sizes;
  { labels; sizes = sizes_arr; count = !count }

let largest t =
  if t.count = 0 then raise Not_found;
  let best = ref 0 in
  for id = 1 to t.count - 1 do
    if t.sizes.(id) > t.sizes.(!best) then best := id
  done;
  !best

let largest_size t = if t.count = 0 then 0 else t.sizes.(largest t)

let gamma ?alive view =
  let n = Gview.num_nodes view in
  if n = 0 then 0.0
  else
    let c = compute ?alive view in
    float_of_int (largest_size c) /. float_of_int n

let members t id =
  if id < 0 || id >= t.count then invalid_arg "Components.members: bad id";
  let out = Bitset.create (Array.length t.labels) in
  Array.iteri (fun v l -> if l = id then Bitset.add out v) t.labels;
  out

let largest_members ?alive view =
  let c = compute ?alive view in
  if c.count = 0 then Bitset.create (Gview.num_nodes view) else members c (largest c)

let smallest_members ?alive view =
  let c = compute ?alive view in
  if c.count <= 1 then None
  else
    let smallest = ref 0 in
    for id = 1 to c.count - 1 do
      if c.sizes.(id) < c.sizes.(!smallest) then smallest := id
    done;
    Some (members c !smallest)

let size_histogram t =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      let cur = try Hashtbl.find tbl s with Not_found -> 0 in
      Hashtbl.replace tbl s (cur + 1))
    t.sizes;
  Hashtbl.fold (fun size count acc -> (size, count) :: acc) tbl []
  |> List.sort Graph.compare_int_pair

let is_connected ?alive view =
  let c = compute ?alive view in
  c.count <= 1
