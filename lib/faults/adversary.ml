open Fn_graph
open Fn_prng
open Fn_expansion

let random rng g ~budget =
  let n = Graph.num_nodes g in
  if budget < 0 || budget > n then invalid_arg "Adversary.random: bad budget";
  Fault_set.of_faulty_array n (Rng.sample rng n budget)

let degree_targeted g ~budget =
  let n = Graph.num_nodes g in
  if budget < 0 || budget > n then invalid_arg "Adversary.degree_targeted: bad budget";
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Int.compare (Graph.degree g b) (Graph.degree g a) in
      if c <> 0 then c else Int.compare a b)
    order;
  Fault_set.of_faulty_array n (Array.sub order 0 budget)

let targets g ~targets ~budget =
  let n = Graph.num_nodes g in
  if budget < 0 then invalid_arg "Adversary.targets: negative budget";
  let take = min budget (Array.length targets) in
  Fault_set.of_faulty_array n (Array.sub targets 0 take)

let ball_isolation ?(samples = 16) rng g ~budget =
  let n = Graph.num_nodes g in
  if budget < 0 || budget > n then invalid_arg "Adversary.ball_isolation: bad budget";
  let view = Gview.Csr g in
  let best_boundary = ref None in
  let best_ball_size = ref (-1) in
  for _ = 1 to samples do
    let src = Rng.int rng n in
    (* grow the ball radius by radius while its boundary fits *)
    let r = ref 1 in
    let continue = ref true in
    while !continue do
      let ball = Bfs.ball view src !r in
      let boundary = Boundary.node_boundary view ball in
      let bsize = Bitset.cardinal boundary in
      let ball_size = Bitset.cardinal ball in
      if bsize <= budget && bsize > 0 && 2 * ball_size <= n then begin
        if ball_size > !best_ball_size then begin
          best_ball_size := ball_size;
          best_boundary := Some boundary
        end;
        incr r;
        if !r > n then continue := false
      end
      else continue := false
    done
  done;
  match !best_boundary with
  | Some b -> Fault_set.of_faulty n b
  | None -> Fault_set.none n

type cut_step = { fragment_size : int; cut_side : int; removed : int }

type recursive_result = {
  faults : Fault_set.t;
  steps : cut_step list;
  final_fragments : int list;
}

let recursive_cut ?rng ?(max_budget = max_int) g ~epsilon =
  if not (epsilon > 0.0 && epsilon <= 1.0) then invalid_arg "Adversary.recursive_cut: bad epsilon";
  let rng = match rng with Some r -> r | None -> Rng.create 0x25D1 in
  let n = Graph.num_nodes g in
  let view = Gview.Csr g in
  let threshold = max 2 (int_of_float (ceil (epsilon *. float_of_int n))) in
  let faulty = Bitset.create n in
  let alive = Bitset.create_full n in
  let steps = ref [] in
  let spent = ref 0 in
  let rec loop () =
    let comps = Components.compute ~alive view in
    (* largest fragment at or above the threshold *)
    let target = ref (-1) in
    for id = 0 to comps.Components.count - 1 do
      if
        comps.Components.sizes.(id) >= threshold
        && (!target < 0 || comps.Components.sizes.(id) > comps.Components.sizes.(!target))
      then target := id
    done;
    if !target >= 0 then begin
      let fragment = Components.members comps !target in
      let fragment_size = Bitset.cardinal fragment in
      let est = Estimate.run ~alive:fragment ~rng g Cut.Node in
      let u = est.Estimate.witness in
      let boundary = Boundary.node_boundary ~alive:fragment view u in
      let removed = Bitset.cardinal boundary in
      if removed = 0 || !spent + removed > max_budget then ()
      else begin
        Bitset.union_into faulty boundary;
        Bitset.diff_into alive boundary;
        spent := !spent + removed;
        steps := { fragment_size; cut_side = Bitset.cardinal u; removed } :: !steps;
        loop ()
      end
    end
  in
  loop ();
  let comps = Components.compute ~alive view in
  let final_fragments =
    Array.to_list comps.Components.sizes |> List.sort (fun a b -> Int.compare b a)
  in
  { faults = Fault_set.of_faulty n faulty; steps = List.rev !steps; final_fragments }
