open Fn_graph
open Fn_prng
open Fn_expansion

type t = alive:Bitset.t -> Gview.t -> threshold:float -> Bitset.t option

let exact_limit = 18

(* Exact solving on a fragment: it has at most [exact_limit] alive
   nodes, so inducing a throwaway CSR for {!Exact} touches
   O(|alive|·Δ) cells of the view — never the whole topology.  Alive
   nodes are numbered in increasing order and [Graph.of_edges] sorts
   the rows, so on a CSR view this is the graph [Subgraph.induce]
   builds. *)
let exact objective ~alive view ~threshold =
  if Bitset.cardinal alive > exact_limit then
    invalid_arg "Low_expansion.exact: fragment too large";
  let nodes = Bitset.to_array alive in
  let k = Array.length nodes in
  if k < 2 then None
  else begin
    let iter = Gview.iter_neighbors view in
    (* a neighbor's fragment index is its position in [nodes]; a
       linear scan of at most [exact_limit] ids *)
    let edges = ref [] in
    Array.iteri
      (fun i v ->
        iter v (fun w ->
            match Array.find_index (Int.equal w) nodes with
            | Some j when i < j -> edges := (i, j) :: !edges
            | Some _ | None -> ()))
      nodes;
    let sub = Graph.of_edges k !edges in
    let cut =
      match objective with
      | Cut.Node -> Exact.node_expansion sub
      | Cut.Edge -> Exact.edge_expansion sub
    in
    if cut.Cut.value <= threshold then begin
      let lifted = Bitset.create (Gview.num_nodes view) in
      Bitset.iter (fun i -> Bitset.add lifted nodes.(i)) cut.Cut.set;
      Some lifted
    end
    else None
  end

(* One components pass per call, wherever the estimator makes none:
   here for fragments of at most [exact_limit] alive nodes (then the
   exact finder) and above {!Estimate.spectral_node_cap} (where the
   estimator is the ball slice alone); in between, {!Estimate.run_v}'s
   own pass yields the same smallest component (value 0) before it
   draws from [rng]. *)
let default ?rng ?domains objective ~alive view ~threshold =
  let size = Bitset.cardinal alive in
  let small = size <= exact_limit in
  if size < 2 then None
  else
    match
      if small || size > Estimate.spectral_node_cap then
        Components.smallest_members ~alive view
      else None
    with
    | Some _ as s -> s
    | None when small -> exact objective ~alive view ~threshold
    | None ->
      let rng = match rng with Some r -> r | None -> Rng.create 0x10E5 in
      let est = Estimate.run_v ~alive ~rng ?domains view objective in
      if est.Estimate.value <= threshold then Some est.Estimate.witness else None
