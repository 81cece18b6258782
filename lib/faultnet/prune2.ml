open Fn_graph

type culled = {
  found : Bitset.t;
  compacted : Bitset.t;
  size : int;
  edge_boundary : int;
}

type result = {
  kept : Bitset.t;
  culled : culled list;
  iterations : int;
  threshold : float;
}

(* The finder may return a disconnected witness; at least one of its
   connected components meets the same edge-boundary-to-size ratio
   (the ratio of a disjoint union is a weighted mediant of the
   components' ratios).  Pick the best component. *)
let best_connected_piece ~scratch ~alive view s threshold =
  let comps = Components.compute ~alive:s view in
  if comps.Components.count = 0 then None
  else begin
    let best = ref None in
    for id = 0 to comps.Components.count - 1 do
      let c = Components.members comps id in
      let ratio =
        float_of_int (Boundary.Scratch.edge_boundary_size scratch ~alive view c)
        /. float_of_int (Bitset.cardinal c)
      in
      match !best with
      | Some (_, br) when br <= ratio -> ()
      | _ -> best := Some (c, ratio)
    done;
    match !best with
    | Some (c, r) when r <= threshold +. 1e-9 -> Some c
    | _ -> None
  end

let run ?(obs = Fn_obs.Sink.null) ?finder ?rng ?domains g ~alive ~alpha_e ~epsilon =
  if alpha_e <= 0.0 then invalid_arg "Prune2.run: alpha_e must be positive";
  if epsilon <= 0.0 || epsilon >= 1.0 then invalid_arg "Prune2.run: need 0 < epsilon < 1";
  let finder =
    match finder with
    | Some f -> f
    | None -> Low_expansion.default ?rng ?domains Fn_expansion.Cut.Edge
  in
  let view = Gview.Csr g in
  (* one generation-stamped scratch serves every boundary count of the
     run (round certificates and the witness component split) *)
  let scratch = Boundary.Scratch.create (Gview.num_nodes view) in
  let threshold = alpha_e *. epsilon in
  let on = Fn_obs.Sink.enabled obs in
  let sp =
    if on then
      Fn_obs.Span.enter obs "prune2.run"
        ~fields:
          [
            ("alive", Fn_obs.Sink.Int (Bitset.cardinal alive));
            ("alpha_e", Fn_obs.Sink.Float alpha_e);
            ("epsilon", Fn_obs.Sink.Float epsilon);
            ("threshold", Fn_obs.Sink.Float threshold);
          ]
    else Fn_obs.Span.null
  in
  let current = Bitset.copy alive in
  let culled = ref [] in
  let iterations = ref 0 in
  let continue = ref true in
  while !continue do
    if Bitset.cardinal current < 2 then continue := false
    else
      match finder ~alive:current view ~threshold with
      | None -> continue := false
      | Some witness -> (
        match best_connected_piece ~scratch ~alive:current view witness threshold with
        | None -> continue := false
        | Some s ->
          incr iterations;
          let k = Compact.compactify ~alive:current view s in
          let size = Bitset.cardinal k in
          let edge_boundary =
            Boundary.Scratch.edge_boundary_size scratch ~alive:current view k
          in
          culled := { found = s; compacted = k; size; edge_boundary } :: !culled;
          Bitset.diff_into current k;
          if on then begin
            Fn_obs.Span.instant obs "prune2.round"
              ~fields:
                [
                  ("round", Fn_obs.Sink.Int !iterations);
                  ("culled", Fn_obs.Sink.Int size);
                  ("edge_boundary", Fn_obs.Sink.Int edge_boundary);
                  ( "ratio",
                    Fn_obs.Sink.Float (float_of_int edge_boundary /. float_of_int size) );
                  ("survivors", Fn_obs.Sink.Int (Bitset.cardinal current));
                ];
            Fn_obs.Metrics.incr (Fn_obs.Metrics.counter "prune2.rounds");
            Fn_obs.Metrics.add (Fn_obs.Metrics.counter "prune2.culled_nodes") size
          end)
  done;
  if on then
    Fn_obs.Span.exit sp
      ~fields:
        [
          ("iterations", Fn_obs.Sink.Int !iterations);
          ("kept", Fn_obs.Sink.Int (Bitset.cardinal current));
        ];
  { kept = current; culled = List.rev !culled; iterations = !iterations; threshold }

let total_culled r = List.fold_left (fun acc c -> acc + c.size) 0 r.culled

let verify_certificates g ~alive r =
  let view = Gview.Csr g in
  let current = Bitset.copy alive in
  let ok = ref true in
  List.iter
    (fun c ->
      let total = Bitset.cardinal current in
      if not (Bitset.subset c.found current) then ok := false;
      if not (Bitset.subset c.compacted current) then ok := false;
      if not (Dfs.is_connected_subset view c.found) then ok := false;
      let s_size = Bitset.cardinal c.found in
      if 2 * s_size > total then ok := false;
      let s_boundary = Boundary.edge_boundary_size ~alive:current view c.found in
      if float_of_int s_boundary > (r.threshold *. float_of_int s_size) +. 1e-9 then ok := false;
      (* Claim 3.5 / Lemma 3.3: the culled set must be compact in G_i --
         provided G_i is connected, which is the lemma's hypothesis (on
         a disconnected remnant whole components are culled and the
         complement may itself be disconnected) *)
      if
        Dfs.is_connected_subset view current
        && not (Compact.is_compact ~alive:current view c.compacted)
      then ok := false;
      let k_size = Bitset.cardinal c.compacted in
      let k_boundary = Boundary.edge_boundary_size ~alive:current view c.compacted in
      if k_size <> c.size || k_boundary <> c.edge_boundary then ok := false;
      let s_ratio = float_of_int s_boundary /. float_of_int s_size in
      let k_ratio = float_of_int k_boundary /. float_of_int k_size in
      if k_ratio > s_ratio +. 1e-9 then ok := false;
      Bitset.diff_into current c.compacted)
    r.culled;
  if not (Bitset.equal current r.kept) then ok := false;
  !ok
