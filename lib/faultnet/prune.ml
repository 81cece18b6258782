open Fn_graph

type culled = { set : Bitset.t; size : int; boundary : int }

type result = {
  kept : Bitset.t;
  culled : culled list;
  iterations : int;
  threshold : float;
}

let run_v ?(obs = Fn_obs.Sink.null) ?finder ?rng ?domains view ~alive ~alpha ~epsilon =
  if not (alpha > 0.0) then invalid_arg "Prune.run: alpha must be positive";
  if not (epsilon > 0.0 && epsilon < 1.0) then invalid_arg "Prune.run: need 0 < epsilon < 1";
  let finder =
    match finder with
    | Some f -> f
    | None -> Low_expansion.default ~obs ?rng ?domains Fn_expansion.Cut.Node
  in
  (* per-round boundary counts reuse one generation-stamped scratch
     instead of allocating a boundary Bitset every round; equal to
     Boundary.node_boundary_size by construction (differential test) *)
  let scratch = Boundary.Scratch.create (Gview.num_nodes view) in
  let threshold = alpha *. epsilon in
  let on = Fn_obs.Sink.enabled obs in
  let sp =
    if on then
      Fn_obs.Span.enter obs "prune.run"
        ~fields:
          [
            ("alive", Fn_obs.Sink.Int (Bitset.cardinal alive));
            ("alpha", Fn_obs.Sink.Float alpha);
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
      | Some s ->
        incr iterations;
        let size = Bitset.cardinal s in
        let boundary = Boundary.Scratch.node_boundary_size scratch ~alive:current view s in
        assert (size >= 1);
        assert (Bitset.subset s current);
        culled := { set = s; size; boundary } :: !culled;
        Bitset.diff_into current s;
        if on then begin
          Fn_obs.Span.instant obs "prune.round"
            ~fields:
              [
                ("round", Fn_obs.Sink.Int !iterations);
                ("culled", Fn_obs.Sink.Int size);
                ("boundary", Fn_obs.Sink.Int boundary);
                ("ratio", Fn_obs.Sink.Float (float_of_int boundary /. float_of_int size));
                ("survivors", Fn_obs.Sink.Int (Bitset.cardinal current));
              ];
          Fn_obs.Metrics.incr (Fn_obs.Metrics.counter "prune.rounds");
          Fn_obs.Metrics.add (Fn_obs.Metrics.counter "prune.culled_nodes") size
        end
  done;
  if on then
    Fn_obs.Span.exit sp
      ~fields:
        [
          ("iterations", Fn_obs.Sink.Int !iterations);
          ("kept", Fn_obs.Sink.Int (Bitset.cardinal current));
        ];
  { kept = current; culled = List.rev !culled; iterations = !iterations; threshold }

let run ?obs ?finder ?rng ?domains g = run_v ?obs ?finder ?rng ?domains (Gview.Csr g)

let total_culled r = List.fold_left (fun acc c -> acc + c.size) 0 r.culled

let verify_certificates g ~alive r =
  let view = Gview.Csr g in
  let current = Bitset.copy alive in
  let ok = ref true in
  List.iter
    (fun c ->
      let total = Bitset.cardinal current in
      if not (Bitset.subset c.set current) then ok := false;
      let size = Bitset.cardinal c.set in
      if size <> c.size || 2 * size > total then ok := false;
      let boundary = Boundary.node_boundary_size ~alive:current view c.set in
      if boundary <> c.boundary then ok := false;
      if float_of_int boundary > (r.threshold *. float_of_int size) +. 1e-9 then ok := false;
      Bitset.diff_into current c.set)
    r.culled;
  if not (Bitset.equal current r.kept) then ok := false;
  !ok
