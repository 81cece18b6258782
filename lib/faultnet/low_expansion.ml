open Fn_graph
open Fn_prng
open Fn_expansion

type t = alive:Bitset.t -> Graph.t -> threshold:float -> Bitset.t option

type t_v = alive:Bitset.t -> Gview.t -> threshold:float -> Bitset.t option

let exact_limit = 18

let small_component_v ~alive view =
  let comps = Components.compute_v ~alive view in
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

let small_component ~alive g = small_component_v ~alive (Gview.Csr g)

let exact_on_fragment objective ~alive g ~threshold =
  let sub = Subgraph.induce g alive in
  let n = Graph.num_nodes sub.Subgraph.graph in
  if n < 2 then None
  else begin
    let cut =
      match objective with
      | Cut.Node -> Exact.node_expansion sub.Subgraph.graph
      | Cut.Edge -> Exact.edge_expansion sub.Subgraph.graph
    in
    if cut.Cut.value <= threshold then Some (Subgraph.lift_set sub cut.Cut.set) else None
  end

let exact objective ~alive g ~threshold =
  if Bitset.cardinal alive > exact_limit then
    invalid_arg "Low_expansion.exact: fragment too large";
  exact_on_fragment objective ~alive g ~threshold

(* Exact solving on an implicit-view fragment: the fragment has at
   most [exact_limit] alive nodes, so inducing a throwaway CSR for
   {!Exact} touches O(|alive|·Δ) cells of the generator — never the
   whole topology. *)
let exact_on_fragment_implicit objective ~alive view ~threshold =
  let nodes = Bitset.to_array alive in
  let k = Array.length nodes in
  if k < 2 then None
  else begin
    let idx = Hashtbl.create (2 * k) in
    Array.iteri (fun i v -> Hashtbl.replace idx v i) nodes;
    let edges = ref [] in
    Array.iteri
      (fun i v ->
        Gview.iter_neighbors view v (fun w ->
            match Hashtbl.find_opt idx w with
            | Some j when i < j -> edges := (i, j) :: !edges
            | _ -> ()))
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

let default ?rng ?domains objective ~alive g ~threshold =
  let size = Bitset.cardinal alive in
  if size < 2 then None
  else
    match small_component ~alive g with
    | Some s -> Some s
    | None ->
      if size <= exact_limit then exact_on_fragment objective ~alive g ~threshold
      else begin
        let rng = match rng with Some r -> r | None -> Rng.create 0x10E5 in
        let est = Estimate.run ~alive ~rng ?domains g objective in
        if est.Estimate.value <= threshold then Some est.Estimate.witness else None
      end

(* Memory guard for the implicit-arm spectral path: the Krylov basis
   holds up to 16 vectors of n floats, so beyond this alive count the
   spectral witness would cost hundreds of MB and the ball slice runs
   alone. *)
let spectral_node_cap = 500_000

let default_v ?rng ?domains objective ~alive view ~threshold =
  match view with
  | Gview.Csr g -> default ?rng ?domains objective ~alive g ~threshold
  | Gview.Implicit _ -> (
    let size = Bitset.cardinal alive in
    if size < 2 then None
    else
      match small_component_v ~alive view with
      | Some s -> Some s
      | None ->
        if size <= exact_limit then
          exact_on_fragment_implicit objective ~alive view ~threshold
        else begin
          let rng = match rng with Some r -> r | None -> Rng.create 0x10E5 in
          let ball = Estimate.ball_witness_v ~alive ~rng view objective in
          (* the registry's Gview-capable operator lets implicit
             topologies run a spectral sweep too; best of both slices *)
          let spectral =
            if size <= spectral_node_cap then
              Option.map fst (Estimate.spectral_witness_v ~alive ?domains view objective)
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
          | Some _ | None -> None
        end)
