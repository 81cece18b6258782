open Fn_graph
open Fn_prng
open Fn_faults

(* Forward (level-monotone) reachability: butterfly-style networks
   route packets strictly down the levels, so only paths whose level
   increases by one per hop count — this is exactly where the plain
   butterfly is fragile (one node per input-output path) and the
   multibutterfly's splitter expansion pays off. *)
let forward_reachable g alive ~rows input =
  let n = Graph.num_nodes g in
  let seen = Bitset.create n in
  let queue = Queue.create () in
  Bitset.add seen input;
  Queue.add input queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let next_level = (u / rows) + 1 in
    Graph.iter_neighbors g u (fun w ->
        if w / rows = next_level && Bitset.mem alive w && not (Bitset.mem seen w) then begin
          Bitset.add seen w;
          Queue.add w queue
        end)
  done;
  seen

(* Fraction of alive inputs that can still reach at least half of the
   alive outputs along level-monotone paths. *)
let serving_fraction g alive ~rows inputs outputs =
  let alive_outputs =
    Array.to_list outputs |> List.filter (fun v -> Bitset.mem alive v)
  in
  let total_outputs = List.length alive_outputs in
  if total_outputs = 0 then 0.0
  else begin
    let good = ref 0 and alive_inputs = ref 0 in
    Array.iter
      (fun input ->
        if Bitset.mem alive input then begin
          incr alive_inputs;
          let reach = forward_reachable g alive ~rows input in
          let count =
            List.fold_left
              (fun acc o -> if Bitset.mem reach o then acc + 1 else acc)
              0 alive_outputs
          in
          if 2 * count >= total_outputs then incr good
        end)
      inputs;
    if !alive_inputs = 0 then 0.0 else float_of_int !good /. float_of_int !alive_inputs
  end

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let rng = Rng.create seed in
  let k = if quick then 5 else 6 in
  let trials = if quick then 3 else 5 in
  let bf = Fn_topology.Butterfly.unwrapped k in
  let mbf = Fn_topology.Multibutterfly.build rng ~k ~multiplicity:2 in
  let n = Graph.num_nodes bf in
  let rows = 1 lsl k in
  let inputs = Array.init rows (fun r -> Fn_topology.Butterfly.node ~k ~level:0 ~row:r) in
  let outputs = Array.init rows (fun r -> Fn_topology.Butterfly.node ~k ~level:k ~row:r) in
  let fault_fracs = [ 0.05; 0.10; 0.20 ] in
  let table =
    Fn_stats.Table.create [ "faults"; "f/n"; "butterfly serves"; "multibutterfly serves" ]
  in
  let separation_ok = ref true in
  List.iter
    (fun frac ->
      let budget = int_of_float (frac *. float_of_int n) in
      let measure g =
        let vals =
          List.init trials (fun _ ->
              let faults = Random_faults.nodes_exact rng g budget in
              serving_fraction g faults.Fault_set.alive ~rows inputs outputs)
        in
        Workload.mean_of vals
      in
      let b = measure bf in
      let m = measure mbf.Fn_topology.Multibutterfly.graph in
      if frac >= 0.10 && m < b +. 0.02 then separation_ok := false;
      Fn_stats.Table.add_row table
        [
          string_of_int budget;
          Printf.sprintf "%.2f" frac;
          Printf.sprintf "%.3f" b;
          Printf.sprintf "%.3f" m;
        ])
    fault_fracs;
  {
    Outcome.id = "E13";
    title = "Sec 1.1: butterfly vs multibutterfly input-output service under faults";
    table;
    checks =
      [
        ( "multibutterfly clearly beats the butterfly at 10%+ faults",
          !separation_ok );
      ];
    notes =
      [
        Printf.sprintf
          "k = %d (%d nodes); 'serves' = fraction of alive inputs reaching >= half the \
           alive outputs; multiplicity-2 splitters give the multibutterfly its expansion"
          k n;
      ];
  }
