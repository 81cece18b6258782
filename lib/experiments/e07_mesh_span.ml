open Fn_prng

let dims_label dims = String.concat "x" (Array.to_list (Array.map string_of_int dims))

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let rng = Rng.create seed in
  let exact_meshes =
    if quick then [ [| 3; 3 |]; [| 2; 2; 2 |] ]
    else [ [| 3; 3 |]; [| 4; 4 |]; [| 3; 4 |]; [| 2; 2; 2 |]; [| 2; 3; 3 |] ]
  in
  let sampled_meshes =
    if quick then [ ([| 8; 8 |], 50) ] else [ ([| 8; 8 |], 150); ([| 16; 16 |], 100); ([| 4; 4; 4 |], 100) ]
  in
  let table =
    Fn_stats.Table.create [ "mesh"; "mode"; "sets"; "span/max ratio"; "bound"; "ok" ]
  in
  let exact_ok = ref true in
  let construction_ok = ref true in
  List.iter
    (fun dims ->
      let g, _geo = Fn_topology.Mesh.graph dims in
      let est = Faultnet.Span.exact g in
      let ok = est.Faultnet.Span.span <= 2.0 +. 1e-9 in
      if not ok then exact_ok := false;
      Fn_stats.Table.add_row table
        [
          dims_label dims;
          (if est.Faultnet.Span.all_exact then "exact" else "exact(2-approx trees)");
          string_of_int est.Faultnet.Span.sets_examined;
          Printf.sprintf "%.4f" est.Faultnet.Span.span;
          "2";
          Workload.bool_cell ok;
        ])
    exact_meshes;
  List.iter
    (fun (dims, samples) ->
      let worst, checked, certs_ok =
        let g, geo = Fn_topology.Mesh.graph dims in
        let worst = ref 0.0 in
        let checked = ref 0 in
        let certs_ok = ref true in
        let n = Fn_graph.Graph.num_nodes g in
        for _ = 1 to samples do
          let target_size = 1 + Rng.int rng (n / 2) in
          match Faultnet.Compact.random_compact rng g ~target_size with
          | None -> ()
          | Some u -> (
            match Faultnet.Mesh_span.certify g geo u with
            | None -> ()
            | Some c ->
              incr checked;
              if not c.Faultnet.Mesh_span.virtual_connected then certs_ok := false;
              if
                c.Faultnet.Mesh_span.tree_edges
                > Faultnet.Mesh_span.spanning_tree_bound
                    (Fn_graph.Bitset.cardinal c.Faultnet.Mesh_span.boundary)
              then certs_ok := false;
              if c.Faultnet.Mesh_span.ratio > !worst then
                worst := c.Faultnet.Mesh_span.ratio)
        done;
        (!worst, !checked, !certs_ok)
      in
      if not certs_ok then construction_ok := false;
      let ok = worst <= 2.0 +. 1e-9 in
      if not ok then construction_ok := false;
      Fn_stats.Table.add_row table
        [
          dims_label dims;
          "sampled+certified";
          string_of_int checked;
          Printf.sprintf "%.4f" worst;
          "2";
          Workload.bool_cell ok;
        ])
    sampled_meshes;
  (* tori: Theorem 3.6 is proven for meshes, but E6/E9 apply sigma = 2
     to tori; sample the torus span generically (Steiner-based) as
     supporting evidence *)
  let torus_ok = ref true in
  List.iter
    (fun dims ->
      let g, _ = Fn_topology.Torus.graph dims in
      let est = Faultnet.Span.sample rng ~samples:(if quick then 40 else 120) g in
      if est.Faultnet.Span.span > 2.5 then torus_ok := false;
      Fn_stats.Table.add_row table
        [
          dims_label dims ^ " torus";
          "sampled (generic)";
          string_of_int est.Faultnet.Span.sets_examined;
          Printf.sprintf "%.4f" est.Faultnet.Span.span;
          "~2";
          Workload.bool_cell (est.Faultnet.Span.span <= 2.5);
        ])
    (if quick then [ [| 6; 6 |] ] else [ [| 8; 8 |]; [| 4; 4; 4 |] ]);
  {
    Outcome.id = "E7";
    title = "Theorem 3.6: d-dimensional meshes have span <= 2";
    table;
    checks =
      [
        ("exhaustive span <= 2 on all small meshes", !exact_ok);
        ( "virtual boundary graph connected (Lemma 3.7) and tree <= 2(|B|-1) on every sample",
          !construction_ok );
        ("sampled torus span stays near 2 (supports using sigma = 2 for tori)", !torus_ok);
      ];
    notes =
      [
        "torus rows use the generic Steiner-based span sampler: Theorem 3.6's virtual-edge \
         argument is stated for meshes, so the torus value is evidence, not a theorem";
      ];
  }
