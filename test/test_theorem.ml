open Faultnet
open Testutil

let test_thm21 () =
  check_int "max faults" 32 (Theorem.thm21_max_faults ~alpha:1.0 ~n:256 ~k:2.0);
  check_float "min kept" 192.0 (Theorem.thm21_min_kept ~alpha:1.0 ~n:256 ~k:2.0 ~f:32);
  check_float "expansion" 0.5 (Theorem.thm21_expansion ~alpha:1.0 ~k:2.0);
  check_float "epsilon" 0.75 (Theorem.thm21_epsilon ~k:4.0);
  (* monotonicity: larger k tolerates fewer faults *)
  check_bool "k monotone" true
    (Theorem.thm21_max_faults ~alpha:0.5 ~n:1000 ~k:8.0
    < Theorem.thm21_max_faults ~alpha:0.5 ~n:1000 ~k:2.0);
  Alcotest.check_raises "k < 2" (Invalid_argument "thm21_max_faults: need alpha > 0, k >= 2")
    (fun () -> ignore (Theorem.thm21_max_faults ~alpha:1.0 ~n:10 ~k:1.0));
  Alcotest.check_raises "eps k < 2" (Invalid_argument "thm21_epsilon: need k >= 2") (fun () ->
      ignore (Theorem.thm21_epsilon ~k:1.5))

let test_thm23 () =
  check_int "component bound" 17 (Theorem.thm23_component_bound ~delta:4 ~k:8)

let test_thm31 () =
  check_float_eps 1e-9 "formula" (4.0 *. log 4.0 /. 8.0)
    (Theorem.thm31_fault_probability ~delta:4 ~k:8);
  check_bool "decreasing in k" true
    (Theorem.thm31_fault_probability ~delta:4 ~k:16
    < Theorem.thm31_fault_probability ~delta:4 ~k:8);
  Alcotest.check_raises "bad delta" (Invalid_argument "thm31_fault_probability: bad parameters")
    (fun () -> ignore (Theorem.thm31_fault_probability ~delta:1 ~k:8))

let test_thm34 () =
  let p = Theorem.thm34_max_fault_probability ~delta:4 ~sigma:2.0 in
  check_float_eps 1e-12 "p formula" (1.0 /. (2.0 *. Float.exp 1.0 *. (4.0 ** 8.0))) p;
  check_float "epsilon" 0.125 (Theorem.thm34_max_epsilon ~delta:4);
  check_float "size" 128.0 (Theorem.thm34_guaranteed_size ~n:256)

let test_thm36_and_budget () =
  check_float "mesh span" 2.0 Theorem.thm36_mesh_span;
  let b2 = Theorem.mesh_fault_budget ~d:2 and b3 = Theorem.mesh_fault_budget ~d:3 in
  check_bool "positive" true (b2 > 0.0);
  check_bool "decreasing in d" true (b3 < b2);
  (* "inversely polynomial in d": budget * (2d)^8 is constant *)
  check_float_eps 1e-12 "poly structure" (b2 *. (4.0 ** 8.0)) (b3 *. (6.0 ** 8.0))

(* nan fails every comparison, so each bound check is the negation of
   its valid range: a nan k or sigma must not slip through as a budget *)
let test_nan_parameters_refused () =
  let nan = Float.nan in
  Alcotest.check_raises "thm21 alpha" (Invalid_argument "thm21_max_faults: need alpha > 0, k >= 2")
    (fun () -> ignore (Theorem.thm21_max_faults ~alpha:nan ~n:256 ~k:2.0));
  Alcotest.check_raises "thm21 k" (Invalid_argument "thm21_max_faults: need alpha > 0, k >= 2")
    (fun () -> ignore (Theorem.thm21_max_faults ~alpha:1.0 ~n:256 ~k:nan));
  Alcotest.check_raises "thm21 epsilon k" (Invalid_argument "thm21_epsilon: need k >= 2")
    (fun () -> ignore (Theorem.thm21_epsilon ~k:nan));
  Alcotest.check_raises "thm34 sigma"
    (Invalid_argument "thm34_max_fault_probability: bad parameters") (fun () ->
      ignore (Theorem.thm34_max_fault_probability ~delta:4 ~sigma:nan))

let () =
  Alcotest.run "theorem"
    [
      ( "formulas",
        [
          case "thm 2.1" test_thm21;
          case "thm 2.3" test_thm23;
          case "thm 3.1" test_thm31;
          case "thm 3.4" test_thm34;
          case "thm 3.6 / budget" test_thm36_and_budget;
          case "nan parameters refused" test_nan_parameters_refused;
        ] );
    ]
