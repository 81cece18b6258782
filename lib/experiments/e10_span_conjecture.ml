open Fn_prng

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let rng = Rng.create seed in
  let samples = if quick then 60 else 200 in
  let families =
    if quick then
      [
        ("butterfly", [ ("k=3", Fn_topology.Butterfly.unwrapped 3) ]);
        ("de Bruijn", [ ("k=6", Fn_topology.Debruijn.graph 6) ]);
        ("shuffle-exchange", [ ("k=6", Fn_topology.Shuffle_exchange.graph 6) ]);
      ]
    else
      [
        ( "butterfly",
          [
            ("k=3", Fn_topology.Butterfly.unwrapped 3);
            ("k=4", Fn_topology.Butterfly.unwrapped 4);
            ("k=5", Fn_topology.Butterfly.unwrapped 5);
          ] );
        ( "de Bruijn",
          [
            ("k=6", Fn_topology.Debruijn.graph 6);
            ("k=8", Fn_topology.Debruijn.graph 8);
            ("k=10", Fn_topology.Debruijn.graph 10);
          ] );
        ( "shuffle-exchange",
          [
            ("k=6", Fn_topology.Shuffle_exchange.graph 6);
            ("k=8", Fn_topology.Shuffle_exchange.graph 8);
            ("k=10", Fn_topology.Shuffle_exchange.graph 10);
          ] );
      ]
  in
  let table =
    Fn_stats.Table.create [ "family"; "size"; "nodes"; "sets"; "max ratio"; "mesh ref (<=2)" ]
  in
  let bounded = ref true in
  let family_max = Hashtbl.create 8 in
  List.iter
    (fun (family, instances) ->
      List.iter
        (fun (label, g) ->
          let est = Faultnet.Span.sample rng ~samples g in
          let prev = try Hashtbl.find family_max family with Not_found -> 0.0 in
          Hashtbl.replace family_max family (max prev est.Faultnet.Span.span);
          if est.Faultnet.Span.span > 8.0 then bounded := false;
          Fn_stats.Table.add_row table
            [
              family;
              label;
              string_of_int (Fn_graph.Graph.num_nodes g);
              string_of_int est.Faultnet.Span.sets_examined;
              Printf.sprintf "%.3f" est.Faultnet.Span.span;
              "2.000";
            ])
        instances)
    families;
  {
    Outcome.id = "E10";
    title = "Open problem: sampled span of butterfly / de Bruijn / shuffle-exchange";
    table;
    checks =
      [
        ("sampled span stays bounded (< 8) across sizes in every family", !bounded);
      ];
    notes =
      [
        "sampled ratios are lower estimates of the true span (random compact sets, \
         2-approximate Steiner trees above 9 terminals); flat-in-size maxima support \
         the O(1)-span conjecture";
      ];
  }
