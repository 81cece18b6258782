open Fn_graph

let improve ?alive ?(max_passes = 20) view cut =
  let is_alive v = match alive with None -> true | Some m -> Bitset.mem m v in
  let iter = Gview.iter_neighbors view in
  let n = Gview.num_nodes view in
  let total =
    match alive with None -> n | Some m -> Bitset.cardinal m
  in
  let u = Bitset.copy cut.Cut.set in
  (* Incremental state, so that a move costs O(deg) instead of a
     from-scratch Cut.value_of: cnt.(w) counts the entries w in the
     adjacency rows of U's alive members; nb and eb are the node and
     edge boundaries (alive non-members w with cnt.(w) > 0, and the sum
     of their counts).  Dead members of U are inert: they add nothing
     to cnt and never move, but the small-side test counts them. *)
  let cnt = Array.make n 0 in
  let nb = ref 0 and eb = ref 0 in
  let size_alive = ref 0 and dead_members = ref 0 in
  Bitset.iter
    (fun v ->
      if is_alive v then begin
        incr size_alive;
        iter v (fun w -> cnt.(w) <- cnt.(w) + 1)
      end
      else incr dead_members)
    u;
  let dead_members = !dead_members in
  for w = 0 to n - 1 do
    if cnt.(w) > 0 && is_alive w && not (Bitset.mem u w) then begin
      incr nb;
      eb := !eb + cnt.(w)
    end
  done;
  (* [insert] and [evict] move an alive node; each undoes the other *)
  let insert v =
    let c = cnt.(v) in
    if c > 0 then begin
      decr nb;
      eb := !eb - c
    end;
    Bitset.add u v;
    incr size_alive;
    iter v (fun w ->
        let c = cnt.(w) + 1 in
        cnt.(w) <- c;
        if is_alive w && not (Bitset.mem u w) then begin
          incr eb;
          if c = 1 then incr nb
        end)
  in
  let evict v =
    iter v (fun w ->
        let c = cnt.(w) - 1 in
        cnt.(w) <- c;
        if is_alive w && not (Bitset.mem u w) then begin
          decr eb;
          if c = 0 then decr nb
        end);
    Bitset.remove u v;
    decr size_alive;
    let c = cnt.(v) in
    if c > 0 then begin
      incr nb;
      eb := !eb + c
    end
  in
  (* Cut.value_of from the counters (the same ints, so the same
     float); [infinity] where it would raise on an empty side, which
     no move can beat *)
  let value () =
    match cut.Cut.objective with
    | Cut.Node ->
      if !size_alive = 0 then infinity
      else float_of_int !nb /. float_of_int !size_alive
    | Cut.Edge ->
      let outside = total - !size_alive in
      if !size_alive = 0 || outside = 0 then infinity
      else float_of_int !eb /. float_of_int (min !size_alive outside)
  in
  let current = ref cut.Cut.value in
  (* first occurrence of a candidate in pass p: seen.(v) = p *)
  let seen = Array.make n 0 in
  let improved_once = ref true in
  let passes = ref 0 in
  while !improved_once && !passes < max_passes do
    improved_once := false;
    incr passes;
    let pass = !passes in
    (* candidate moves: alive nodes adjacent to the cut frontier *)
    let candidates = ref [] in
    Bitset.iter
      (fun v ->
        candidates := v :: !candidates;
        iter v (fun w ->
            if is_alive w && not (Bitset.mem u w) then candidates := w :: !candidates))
      u;
    List.iter
      (fun v ->
        if seen.(v) <> pass then begin
          seen.(v) <- pass;
          if is_alive v then begin
            let inside = Bitset.mem u v in
            let size = dead_members + !size_alive in
            let new_size = if inside then size - 1 else size + 1 in
            if new_size >= 1 && 2 * new_size <= total then begin
              if inside then evict v else insert v;
              let value = value () in
              if value < !current -. 1e-12 then begin
                current := value;
                improved_once := true
              end
              else if inside then insert v
              else evict v
            end
          end
        end)
      !candidates
  done;
  { Cut.set = u; value = !current; objective = cut.Cut.objective }

let improve_many ?obs ?alive ?max_passes ?domains view cuts =
  if Array.length cuts = 0 then invalid_arg "Local_search.improve_many: no cuts";
  let improved = Fn_parallel.Par.map ?obs ?domains (improve ?alive ?max_passes view) cuts in
  (* deterministic lowest-index merge: Cut.better keeps the earlier
     cut on ties, so the result is independent of the domain count *)
  Array.fold_left Cut.better improved.(0) improved
