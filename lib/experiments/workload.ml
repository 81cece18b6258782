open Fn_graph

type config = {
  quick : bool;
  seed : int;
  domains : int option;
  obs : Fn_obs.Sink.t;
  journal : Fn_resilience.Journal.t option;
}

let config ?(quick = false) ?(seed = 0) ?domains ?(obs = Fn_obs.Sink.null) ?journal () =
  { quick; seed; domains; obs; journal }

let expander rng ~n ~d = Fn_topology.Expander.random_regular rng ~n ~d

let gamma_of_alive g alive =
  let n = Graph.num_nodes g in
  if n = 0 then 0.0
  else begin
    let comps = Components.compute ~alive (Gview.Csr g) in
    float_of_int (Components.largest_size comps) /. float_of_int n
  end

let node_expansion_estimate ?obs ?domains rng ?alive g =
  (Fn_expansion.Estimate.run ?obs ?domains ?alive ~rng g Fn_expansion.Cut.Node)
    .Fn_expansion.Estimate.value

let edge_expansion_estimate ?obs ?domains rng ?alive g =
  (Fn_expansion.Estimate.run ?obs ?domains ?alive ~rng g Fn_expansion.Cut.Edge)
    .Fn_expansion.Estimate.value

let mean_of xs =
  match xs with
  | [] -> invalid_arg "Workload.mean_of: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let bool_cell b = if b then "yes" else "NO"
