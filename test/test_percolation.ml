open Fn_graph
open Fn_percolation
open Testutil

let rng () = Fn_prng.Rng.create 161803

let test_site_curve_monotone () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:10 in
  let c = Newman_ziff.site_run (rng ()) (Gview.Csr g) in
  check_int "total = nodes" 100 c.Newman_ziff.total;
  let prev = ref 0 in
  Array.iter
    (fun v ->
      if v < !prev then Alcotest.fail "largest cluster shrank";
      prev := v)
    c.Newman_ziff.occupied_largest;
  check_int "all occupied -> giant" 100 c.Newman_ziff.occupied_largest.(99)

let test_bond_curve_monotone () =
  let g = Fn_topology.Basic.complete 20 in
  let c = Newman_ziff.bond_run (rng ()) (Gview.Csr g) in
  check_int "total = edges" 190 c.Newman_ziff.total;
  check_int "full graph connected" 20 c.Newman_ziff.occupied_largest.(189)

let test_gamma_at_bounds () =
  let g = Fn_topology.Basic.cycle 10 in
  let c = Newman_ziff.bond_run (rng ()) (Gview.Csr g) in
  check_float "p=1" 1.0 (Newman_ziff.gamma_at c 1.0);
  check_float "p=0 single node" 0.1 (Newman_ziff.gamma_at c 0.0);
  Alcotest.check_raises "bad p" (Invalid_argument "Newman_ziff.gamma_at: p out of [0,1]")
    (fun () -> ignore (Newman_ziff.gamma_at c 2.0))

(* nan would round to no occupied bond and read as the p=0 value *)
let test_gamma_at_refuses_nan () =
  let c = Newman_ziff.bond_run (rng ()) (Gview.Csr (Fn_topology.Basic.cycle 10)) in
  Alcotest.check_raises "nan p" (Invalid_argument "Newman_ziff.gamma_at: p out of [0,1]")
    (fun () -> ignore (Newman_ziff.gamma_at c Float.nan))

let test_gamma_monotone_in_p () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:12 in
  let c = Newman_ziff.bond_run (rng ()) (Gview.Csr g) in
  let prev = ref 0.0 in
  List.iter
    (fun p ->
      let v = Newman_ziff.gamma_at c p in
      if v < !prev -. 1e-12 then Alcotest.fail "gamma not monotone";
      prev := v)
    [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let test_threshold_mesh_bond () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:24 in
  let r = Threshold.estimate ~runs:16 ~rng:(rng ()) Threshold.Bond (Gview.Csr g) in
  (* Kesten: p* = 1/2; generous finite-size window *)
  check_bool "near 0.5" true (r.Threshold.p_star > 0.35 && r.Threshold.p_star < 0.65)

let test_threshold_complete_site () =
  (* K_n bond threshold ~ c/n: tiny *)
  let g = Fn_topology.Basic.complete 100 in
  let r = Threshold.estimate ~runs:16 ~rng:(rng ()) Threshold.Bond (Gview.Csr g) in
  check_bool "tiny threshold" true (r.Threshold.p_star < 0.05)

let test_threshold_path_is_high () =
  (* a path shatters immediately: threshold near 1 *)
  let g = Fn_topology.Basic.path 200 in
  let r = Threshold.estimate ~runs:16 ~rng:(rng ()) Threshold.Bond (Gview.Csr g) in
  check_bool "1-D threshold near 1" true (r.Threshold.p_star > 0.8)

let test_threshold_ordering () =
  (* denser graphs percolate earlier *)
  let mesh, _ = Fn_topology.Mesh.cube ~d:2 ~side:16 in
  let hyper = Fn_topology.Hypercube.graph 8 in
  let r1 = Threshold.estimate ~runs:8 ~rng:(rng ()) Threshold.Bond (Gview.Csr mesh) in
  let r2 = Threshold.estimate ~runs:8 ~rng:(rng ()) Threshold.Bond (Gview.Csr hyper) in
  check_bool "hypercube before mesh" true (r2.Threshold.p_star < r1.Threshold.p_star)

let test_gamma_curve_shape () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:16 in
  let pts = Threshold.gamma_curve ~runs:8 ~rng:(rng ()) Threshold.Bond (Gview.Csr g) [ 0.2; 0.5; 0.8 ] in
  match pts with
  | [ (_, low, _); (_, mid, _); (_, high, _) ] ->
    check_bool "increasing" true (low < mid && mid < high);
    check_bool "subcritical small" true (low < 0.2);
    check_bool "supercritical large" true (high > 0.8)
  | _ -> Alcotest.fail "expected 3 points"

let () =
  Alcotest.run "percolation"
    [
      ( "newman-ziff",
        [
          case "site curve monotone" test_site_curve_monotone;
          case "bond curve monotone" test_bond_curve_monotone;
          case "gamma bounds" test_gamma_at_bounds;
          case "gamma monotone" test_gamma_monotone_in_p;
          case "gamma refuses nan" test_gamma_at_refuses_nan;
        ] );
      ( "thresholds",
        [
          case "mesh bond ~ 1/2" test_threshold_mesh_bond;
          case "complete tiny" test_threshold_complete_site;
          case "path near 1" test_threshold_path_is_high;
          case "ordering" test_threshold_ordering;
          case "curve shape" test_gamma_curve_shape;
        ] );
    ]
