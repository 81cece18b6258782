open Fn_graph
open Fn_prng
open Fn_expansion

type t = alive:Bitset.t -> Graph.t -> threshold:float -> Bitset.t option

type t_v = alive:Bitset.t -> Gview.t -> threshold:float -> Bitset.t option

let exact_limit = 18

let small_component ~alive view =
  let comps = Components.compute ~alive view in
  if comps.Components.count <= 1 then None
  else begin
    let smallest = ref 0 in
    for id = 1 to comps.Components.count - 1 do
      if comps.Components.sizes.(id) < comps.Components.sizes.(!smallest) then smallest := id
    done;
    let total = Bitset.cardinal alive in
    if 2 * comps.Components.sizes.(!smallest) <= total then
      Some (Components.members comps !smallest)
    else None
  end

(* Exact solving on a fragment: it has at most [exact_limit] alive
   nodes, so inducing a throwaway CSR for {!Exact} touches
   O(|alive|·Δ) cells of the view — never the whole topology.  Alive
   nodes are numbered in increasing order and [Graph.of_edges] sorts
   the rows, so on a CSR view this is the graph [Subgraph.induce]
   builds. *)
let exact_on_fragment objective ~alive view ~threshold =
  let nodes = Bitset.to_array alive in
  let k = Array.length nodes in
  if k < 2 then None
  else begin
    let iter = Gview.iter_neighbors view in
    (* fragment index of [w]: its position in the ascending [nodes], or
       -1 when [w] is not alive *)
    let index w =
      let rec search lo hi =
        if lo >= hi then -1
        else
          let mid = (lo + hi) / 2 in
          if nodes.(mid) = w then mid
          else if nodes.(mid) < w then search (mid + 1) hi
          else search lo mid
      in
      search 0 k
    in
    let edges = ref [] in
    Array.iteri
      (fun i v ->
        iter v (fun w ->
            let j = index w in
            if i < j then edges := (i, j) :: !edges))
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

let exact objective ~alive g ~threshold =
  if Bitset.cardinal alive > exact_limit then
    invalid_arg "Low_expansion.exact: fragment too large";
  exact_on_fragment objective ~alive (Gview.Csr g) ~threshold

(* The portfolio's fixed front: a small component when the fragment is
   disconnected, then the exact finder up to [exact_limit] alive
   nodes; [large size] handles every bigger fragment. *)
let portfolio ~large objective ~alive view ~threshold =
  let size = Bitset.cardinal alive in
  if size < 2 then None
  else
    match small_component ~alive view with
    | Some s -> Some s
    | None ->
      if size <= exact_limit then exact_on_fragment objective ~alive view ~threshold
      else large size

let default ?rng ?domains objective ~alive g ~threshold =
  portfolio objective ~alive (Gview.Csr g) ~threshold ~large:(fun _ ->
      let rng = match rng with Some r -> r | None -> Rng.create 0x10E5 in
      let est = Estimate.run ~alive ~rng ?domains g objective in
      if est.Estimate.value <= threshold then Some est.Estimate.witness else None)

(* Memory guard for the implicit-arm spectral path: the Krylov basis
   holds up to 16 vectors of n floats, so beyond this alive count the
   spectral witness would cost hundreds of MB and the ball slice runs
   alone. *)
let spectral_node_cap = 500_000

let default_v ?rng ?domains objective ~alive view ~threshold =
  match view with
  | Gview.Csr g -> default ?rng ?domains objective ~alive g ~threshold
  | Gview.Implicit _ ->
    portfolio objective ~alive view ~threshold ~large:(fun size ->
        let rng = match rng with Some r -> r | None -> Rng.create 0x10E5 in
        let ball = Estimate.ball_witness ~alive ~rng view objective in
        (* the Gview-capable spectral operator gives implicit topologies
           a spectral sweep too; keep the better of both slices *)
        let spectral =
          if size <= spectral_node_cap then
            Estimate.spectral_witness ~alive ?domains view objective
          else None
        in
        let best =
          match (ball, spectral) with
          | Some a, Some b -> Some (Cut.better a b)
          | (Some _ as s), None | None, (Some _ as s) -> s
          | None, None -> None
        in
        match best with
        | Some cut when cut.Cut.value <= threshold -> Some cut.Cut.set
        | Some _ | None -> None)
