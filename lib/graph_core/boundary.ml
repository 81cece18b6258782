let is_alive alive v =
  match alive with None -> true | Some mask -> Bitset.mem mask v

(* Each counting kernel binds [Gview.iter_neighbors view] once per
   query, outside the per-member loop, and runs one loop over it. *)

let node_boundary ?alive view u =
  let iter = Gview.iter_neighbors view in
  let out = Bitset.create (Gview.num_nodes view) in
  Bitset.iter
    (fun v ->
      if is_alive alive v then
        iter v (fun w -> if (not (Bitset.mem u w)) && is_alive alive w then Bitset.add out w))
    u;
  out

let node_boundary_size ?alive view u = Bitset.cardinal (node_boundary ?alive view u)

let edge_boundary_size ?alive view u =
  let iter = Gview.iter_neighbors view in
  let count = ref 0 in
  Bitset.iter
    (fun v ->
      if is_alive alive v then
        iter v (fun w -> if (not (Bitset.mem u w)) && is_alive alive w then incr count))
    u;
  !count

let alive_cardinal alive u =
  match alive with
  | None -> Bitset.cardinal u
  | Some mask ->
    let inter = Bitset.copy u in
    Bitset.inter_into inter mask;
    Bitset.cardinal inter

module Scratch = struct
  (* Generation-stamped scratch arrays: a counter bump invalidates
     both arrays in O(1), so repeated boundary counts (the Prune /
     Prune2 round loops) reuse one allocation for the whole run
     instead of building a fresh Bitset per round. *)
  type t = { mutable stamp : int; in_set : int array; seen : int array }

  let create n =
    if n < 0 then invalid_arg "Boundary.Scratch.create: negative universe";
    { stamp = 0; in_set = Array.make n 0; seen = Array.make n 0 }

  let check t view =
    if Array.length t.in_set <> Gview.num_nodes view then
      invalid_arg "Boundary.Scratch: universe size mismatch"

  let node_boundary_size t ?alive view u =
    check t view;
    let iter = Gview.iter_neighbors view in
    t.stamp <- t.stamp + 1;
    let m = t.stamp in
    let in_set = t.in_set and seen = t.seen in
    Bitset.iter (fun v -> in_set.(v) <- m) u;
    let count = ref 0 in
    Bitset.iter
      (fun v ->
        if is_alive alive v then
          iter v (fun w ->
              if in_set.(w) <> m && seen.(w) <> m && is_alive alive w then begin
                seen.(w) <- m;
                incr count
              end))
      u;
    !count

  let edge_boundary_size t ?alive view u =
    check t view;
    let iter = Gview.iter_neighbors view in
    t.stamp <- t.stamp + 1;
    let m = t.stamp in
    let in_set = t.in_set in
    Bitset.iter (fun v -> in_set.(v) <- m) u;
    let count = ref 0 in
    Bitset.iter
      (fun v ->
        if is_alive alive v then
          iter v (fun w -> if in_set.(w) <> m && is_alive alive w then incr count))
      u;
    !count
end

let node_expansion ?alive view u =
  let size = alive_cardinal alive u in
  if size = 0 then invalid_arg "Boundary.node_expansion: empty set";
  float_of_int (node_boundary_size ?alive view u) /. float_of_int size

let edge_expansion ?alive view u =
  let inside = alive_cardinal alive u in
  let total =
    match alive with None -> Gview.num_nodes view | Some mask -> Bitset.cardinal mask
  in
  let outside = total - inside in
  if inside = 0 || outside = 0 then invalid_arg "Boundary.edge_expansion: empty side";
  float_of_int (edge_boundary_size ?alive view u) /. float_of_int (min inside outside)
