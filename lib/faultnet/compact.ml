open Fn_graph
open Fn_prng

(* Compactness and compactification take a [Gview.t]: everything they
   need (reachability, components, edge-boundary counts) is
   order-free, so Prune2's round loop culls compact sets on implicit
   topologies without materializing them. *)

let restrict ?alive u =
  match alive with
  | None -> Bitset.copy u
  | Some m ->
    let out = Bitset.copy u in
    Bitset.inter_into out m;
    out

let complement_within ?alive view u =
  let n = Gview.num_nodes view in
  let out = match alive with None -> Bitset.create_full n | Some m -> Bitset.copy m in
  Bitset.diff_into out u;
  out

let is_compact ?alive view u =
  let inside = restrict ?alive u in
  let outside = complement_within ?alive view u in
  (not (Bitset.is_empty inside))
  && (not (Bitset.is_empty outside))
  && Dfs.is_connected_subset view inside
  && Dfs.is_connected_subset view outside

let edge_ratio ?alive view x =
  float_of_int (Boundary.edge_boundary_size ?alive view x) /. float_of_int (Bitset.cardinal x)

let compactify ?alive view s =
  let s = restrict ?alive s in
  if Bitset.is_empty s then invalid_arg "Compact.compactify: empty set";
  if not (Dfs.is_connected_subset view s) then
    invalid_arg "Compact.compactify: S not connected";
  let outside = complement_within ?alive view s in
  if Bitset.is_empty outside then invalid_arg "Compact.compactify: S is everything";
  if Dfs.is_connected_subset view outside then s
  else begin
    let total =
      match alive with None -> Gview.num_nodes view | Some m -> Bitset.cardinal m
    in
    let comps = Components.compute ~alive:outside view in
    (* Case 1: a complement component holds at least half the nodes *)
    let big = ref (-1) in
    for id = 0 to comps.Components.count - 1 do
      if 2 * comps.Components.sizes.(id) >= total then big := id
    done;
    if !big >= 0 then complement_within ?alive view (Components.members comps !big)
    else begin
      (* Case 2: some component has edge expansion <= S's *)
      let s_ratio = edge_ratio ?alive view s in
      let best = ref None in
      for id = 0 to comps.Components.count - 1 do
        let c = Components.members comps id in
        let r = edge_ratio ?alive view c in
        match !best with
        | Some (_, br) when br <= r -> ()
        | _ -> best := Some (c, r)
      done;
      match !best with
      | Some (c, r) when r <= s_ratio +. 1e-9 -> c
      | _ ->
        (* Lemma 3.3 proves this cannot happen; keep S as a safe
           fallback rather than crashing on float pathology *)
        s
    end
  end

let enumerate g =
  let n = Graph.num_nodes g in
  if n > 20 then invalid_arg "Compact.enumerate: graph too large";
  if n < 2 then []
  else begin
    let nbr = Array.init n (fun v -> Graph.fold_neighbors g v (fun acc w -> acc lor (1 lsl w)) 0) in
    let full = (1 lsl n) - 1 in
    let connected_mask mask =
      if mask = 0 then false
      else begin
        let start = mask land -mask in
        let visited = ref start in
        let frontier = ref start in
        while !frontier <> 0 do
          let next = ref 0 in
          let rem = ref !frontier in
          while !rem <> 0 do
            let low = !rem land - !rem in
            let v =
              let rec idx b k = if b land 1 = 1 then k else idx (b lsr 1) (k + 1) in
              idx low 0
            in
            next := !next lor (nbr.(v) land mask land lnot !visited);
            rem := !rem lxor low
          done;
          visited := !visited lor !next;
          frontier := !next
        done;
        !visited = mask
      end
    in
    let out = ref [] in
    for mask = 1 to full - 1 do
      if connected_mask mask && connected_mask (full lxor mask) then begin
        let set = Bitset.create n in
        for v = 0 to n - 1 do
          if mask lsr v land 1 = 1 then Bitset.add set v
        done;
        out := set :: !out
      end
    done;
    List.rev !out
  end

let random_compact rng ?alive g ~target_size =
  let n = Graph.num_nodes g in
  let alive_set = match alive with None -> Bitset.create_full n | Some m -> m in
  let total = Bitset.cardinal alive_set in
  let view = Gview.Csr g in
  if total < 2 || target_size < 1 || 2 * target_size > total then None
  else if not (Dfs.is_connected_subset view alive_set) then None
  else begin
    let nodes = Bitset.to_array alive_set in
    let src = nodes.(Rng.int rng (Array.length nodes)) in
    (* randomized region growing: keep a frontier list, absorb a random
       frontier node each step *)
    let in_u = Bitset.create n in
    Bitset.add in_u src;
    let frontier = ref [] in
    let push v =
      Graph.iter_neighbors g v (fun w ->
          if Bitset.mem alive_set w && not (Bitset.mem in_u w) then frontier := w :: !frontier)
    in
    push src;
    let size = ref 1 in
    while !size < target_size && !frontier <> [] do
      let arr = Array.of_list !frontier in
      let v = arr.(Rng.int rng (Array.length arr)) in
      frontier := List.filter (fun w -> w <> v) !frontier;
      if not (Bitset.mem in_u v) then begin
        Bitset.add in_u v;
        incr size;
        push v
      end
    done;
    (* absorb all complement components but the largest *)
    let outside = complement_within ?alive view in_u in
    if Bitset.is_empty outside then None
    else begin
      let comps = Components.compute ~alive:outside view in
      let biggest = ref 0 in
      for id = 1 to comps.Components.count - 1 do
        if comps.Components.sizes.(id) > comps.Components.sizes.(!biggest) then biggest := id
      done;
      for id = 0 to comps.Components.count - 1 do
        if id <> !biggest then Bitset.union_into in_u (Components.members comps id)
      done;
      if is_compact ?alive view in_u then Some in_u else None
    end
  end
