open Fn_stats
open Testutil

let test_summary_known () =
  let s = Summary.of_array [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_int "n" 8 s.Summary.n;
  check_float "mean" 5.0 s.Summary.mean;
  check_float_eps 1e-9 "std" (sqrt (32.0 /. 7.0)) s.Summary.std;
  check_float "min" 2.0 s.Summary.min;
  check_float "max" 9.0 s.Summary.max

let test_summary_singleton () =
  let s = Summary.of_array [| 3.5 |] in
  check_float "mean" 3.5 s.Summary.mean;
  check_float "std" 0.0 s.Summary.std

let test_summary_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_array: empty sample") (fun () ->
      ignore (Summary.of_array [||]))

let test_quantile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Summary.quantile xs 0.5);
  check_float "min" 1.0 (Summary.quantile xs 0.0);
  check_float "max" 5.0 (Summary.quantile xs 1.0);
  check_float "q25" 2.0 (Summary.quantile xs 0.25);
  (* does not mutate the input *)
  let xs2 = [| 3.0; 1.0; 2.0 |] in
  ignore (Summary.quantile xs2 0.5);
  check_bool "input untouched" true (xs2 = [| 3.0; 1.0; 2.0 |])

(* a nan level fails both range comparisons; it is refused with the
   range message instead of reaching the array as a garbage index *)
let test_quantile_refuses_nan () =
  Alcotest.check_raises "nan q" (Invalid_argument "Summary.quantile: q out of [0,1]") (fun () ->
      ignore (Summary.quantile [| 1.0; 2.0 |] Float.nan))

let test_ci95 () =
  let s = Summary.of_array (Array.make 100 5.0) in
  let lo, hi = Summary.ci95 s in
  check_float "degenerate ci" 5.0 lo;
  check_float "degenerate ci" 5.0 hi

let test_fit_linear_exact () =
  let pts = [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0); (3.0, 7.0) ] in
  let l = Fit.linear pts in
  check_float_eps 1e-9 "slope" 2.0 l.Fit.slope;
  check_float_eps 1e-9 "intercept" 1.0 l.Fit.intercept;
  check_float_eps 1e-9 "r2" 1.0 l.Fit.r2

let test_fit_linear_rejects () =
  Alcotest.check_raises "one point" (Invalid_argument "Fit.linear: need at least 2 points")
    (fun () -> ignore (Fit.linear [ (0.0, 0.0) ]));
  Alcotest.check_raises "degenerate x" (Invalid_argument "Fit.linear: degenerate x values")
    (fun () -> ignore (Fit.linear [ (1.0, 0.0); (1.0, 5.0) ]))

let test_fit_log_log () =
  (* y = 4 / x: slope -1, intercept log 4 *)
  let pts = [ (1.0, 4.0); (2.0, 2.0); (4.0, 1.0); (8.0, 0.5) ] in
  let l = Fit.log_log pts in
  check_float_eps 1e-9 "exponent" (-1.0) l.Fit.slope;
  check_float_eps 1e-9 "log intercept" (log 4.0) l.Fit.intercept;
  Alcotest.check_raises "nonpositive" (Invalid_argument "Fit.log_log: coordinates must be positive")
    (fun () -> ignore (Fit.log_log [ (1.0, -2.0); (2.0, 1.0) ]))

let test_table_render () =
  let t = Table.create [ "a"; "b" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "longer"; "2" ];
  let s = Table.to_string t in
  let lines = String.split_on_char '\n' s in
  check_int "header + rule + 2 rows" 4 (List.length lines);
  (* all lines align to the same width *)
  check_bool "header mentions columns" true (List.hd lines = "a       b");
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "only one" ])

let test_table_float_rows () =
  let t = Table.create [ "x"; "v" ] in
  Table.add_float_row ~precision:2 t "row" [ 1.234 ];
  let s = Table.to_string t in
  check_bool "rounded" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "row  1.23"))

let test_table_csv () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "with,comma"; "with\"quote" ];
  let csv = Table.to_csv t in
  check_bool "escaped comma" true
    (csv = "name,value\n\"with,comma\",\"with\"\"quote\"")

let test_series () =
  let s = Series.create ~x_label:"k" ~y_labels:[ "alpha" ] in
  Series.add s ~x:2.0 [ [ 0.5 ]; [ 0.7 ] ];
  Series.add s ~x:4.0 [ [ 0.25 ]; [ 0.35 ] ];
  let means = Series.means s ~metric:0 in
  check_bool "means in order" true (means = [ (2.0, 0.6); (4.0, 0.3) ]);
  let t = Series.to_table s in
  let rendered = Table.to_string t in
  check_bool "table mentions std column" true
    (String.length rendered > 0
    && String.split_on_char '\n' rendered
       |> List.hd
       |> String.split_on_char ' '
       |> List.exists (fun w -> w = "alpha±std"));
  Alcotest.check_raises "arity" (Invalid_argument "Series.add: metric arity mismatch")
    (fun () -> Series.add s ~x:1.0 [ [ 1.0; 2.0 ] ])

let prop_summary_mean_bounds =
  prop "min <= mean <= max"
    QCheck2.Gen.(list_size (int_range 1 30) (float_range (-100.0) 100.0))
    (fun xs ->
      let s = Summary.of_list xs in
      s.Summary.min <= s.Summary.mean +. 1e-9 && s.Summary.mean <= s.Summary.max +. 1e-9)

let prop_quantile_monotone =
  prop "quantiles monotone in q"
    QCheck2.Gen.(list_size (int_range 2 30) (float_range (-10.0) 10.0))
    (fun xs ->
      let a = Array.of_list xs in
      Summary.quantile a 0.25 <= Summary.quantile a 0.75 +. 1e-9)

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          case "known sample" test_summary_known;
          case "singleton" test_summary_singleton;
          case "empty rejected" test_summary_empty_rejected;
          case "quantiles" test_quantile;
          case "ci95" test_ci95;
          case "quantile refuses nan" test_quantile_refuses_nan;
        ] );
      ( "fit",
        [
          case "linear exact" test_fit_linear_exact;
          case "linear rejects" test_fit_linear_rejects;
          case "log-log" test_fit_log_log;
        ] );
      ( "table",
        [
          case "render" test_table_render;
          case "float rows" test_table_float_rows;
          case "csv" test_table_csv;
          case "series" test_series;
        ] );
      ("properties", [ prop_summary_mean_bounds; prop_quantile_monotone ]);
    ]
