open Fn_graph
open Fn_prng

type witness = {
  compact_set : Bitset.t;
  boundary : Bitset.t;
  tree : Steiner.result;
  ratio : float;
  tree_exact : bool;
}

type estimate = {
  span : float;
  best : witness option;
  sets_examined : int;
  all_exact : bool;
}

let of_compact_set ?(exact_terminals = 9) g u =
  let boundary = Boundary.node_boundary (Gview.Csr g) u in
  let b = Bitset.cardinal boundary in
  if b = 0 then None
  else begin
    let terminals = Bitset.to_array boundary in
    let tree, tree_exact =
      if b = 1 then
        ({ Steiner.nodes = Bitset.copy boundary; edge_count = 0 }, true)
      else if b <= exact_terminals then (Steiner.exact g terminals, true)
      else (Steiner.approx g terminals, false)
    in
    let ratio = float_of_int (Steiner.node_count tree) /. float_of_int b in
    Some { compact_set = Bitset.copy u; boundary; tree; ratio; tree_exact }
  end

let fold_estimate ?exact_terminals g sets =
  let best = ref None in
  let examined = ref 0 in
  let all_exact = ref true in
  List.iter
    (fun u ->
      match of_compact_set ?exact_terminals g u with
      | None -> ()
      | Some w ->
        incr examined;
        if not w.tree_exact then all_exact := false;
        (match !best with
        | Some b when b.ratio >= w.ratio -> ()
        | _ -> best := Some w))
    sets;
  {
    span = (match !best with Some w -> w.ratio | None -> 0.0);
    best = !best;
    sets_examined = !examined;
    all_exact = !all_exact;
  }

let exact ?exact_terminals g = fold_estimate ?exact_terminals g (Compact.enumerate g)

let sample rng ?exact_terminals ?(samples = 200) g =
  let total = Graph.num_nodes g in
  let sets = ref [] in
  if total >= 4 then begin
    for _ = 1 to samples do
      (* geometric size ladder: 1, 2, 4, ... up to total/2 *)
      let levels =
        let rec count size acc = if size > total / 2 then acc else count (2 * size) (acc + 1) in
        count 1 0
      in
      if levels > 0 then begin
        let level = Rng.int rng levels in
        let target_size = 1 lsl level in
        match Compact.random_compact rng g ~target_size with
        | Some u -> sets := u :: !sets
        | None -> ()
      end
    done
  end;
  fold_estimate ?exact_terminals g !sets
