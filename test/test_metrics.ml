open Fn_graph
open Testutil

let rng () = Fn_prng.Rng.create 2468
let path6 = Fn_topology.Basic.path 6
let cycle8 = Fn_topology.Basic.cycle 8
let mesh4, _ = Fn_topology.Mesh.cube ~d:2 ~side:4

let test_diameter_known () =
  check_int "path" 5 (Metrics.diameter path6);
  check_int "cycle" 4 (Metrics.diameter cycle8);
  check_int "mesh" 6 (Metrics.diameter mesh4);
  check_int "complete" 1 (Metrics.diameter (Fn_topology.Basic.complete 7));
  check_int "single node" 0 (Metrics.diameter (Graph.empty 1))

let test_diameter_masked () =
  let alive = Bitset.of_list 6 [ 0; 1; 2 ] in
  check_int "masked path" 2 (Metrics.diameter ~alive path6)

let test_diameter_disconnected () =
  let g = Graph.of_edges 5 [ (0, 1); (2, 3); (3, 4) ] in
  check_int "ignores cross-component pairs" 2 (Metrics.diameter g)

let test_diameter_estimate () =
  let est = Metrics.diameter_estimate (rng ()) path6 in
  check_int "exact on trees" 5 est;
  let est = Metrics.diameter_estimate (rng ()) mesh4 in
  check_bool "never overestimates" true (est <= 6);
  check_bool "double sweep is decent" true (est >= 4)

let test_mean_distance () =
  let m = Metrics.mean_distance ~samples:7 (rng ()) (Fn_topology.Basic.complete 7) in
  check_float "complete graph" 1.0 m;
  let m = Metrics.mean_distance ~samples:6 (rng ()) path6 in
  (* exact mean pairwise distance of P6 is 35/15 *)
  check_float_eps 1e-9 "path exact (all sources sampled)" (35.0 /. 15.0) m

let test_clustering () =
  check_float "triangle" 1.0 (Metrics.clustering_coefficient (Fn_topology.Basic.complete 3));
  check_float "tree has none" 0.0 (Metrics.clustering_coefficient path6);
  let barbell = Fn_topology.Basic.barbell 4 in
  check_bool "barbell in (0,1)" true
    (let c = Metrics.clustering_coefficient barbell in
     c > 0.0 && c < 1.0)

let prop_estimate_le_diameter =
  prop "double sweep <= true diameter" ~count:60 (Testutil.gen_connected_graph ~max_n:12 ())
    (fun g ->
      Metrics.diameter_estimate (Fn_prng.Rng.create 5) g <= Metrics.diameter g)

let () =
  Alcotest.run "metrics"
    [
      ( "diameter",
        [
          case "known values" test_diameter_known;
          case "masked" test_diameter_masked;
          case "disconnected" test_diameter_disconnected;
          case "estimate" test_diameter_estimate;
        ] );
      ( "others",
        [
          case "mean distance" test_mean_distance;
          case "clustering" test_clustering;
        ] );
      ("properties", [ prop_estimate_le_diameter ]);
    ]
