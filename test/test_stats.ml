open Fn_stats
open Testutil

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

let test_table_headers_rows () =
  let t = Table.create [ "k"; "alpha" ] in
  Table.add_row t [ "2"; "0.5" ];
  Table.add_row t [ "4"; "0.25" ];
  check_bool "headers" true (Table.headers t = [ "k"; "alpha" ]);
  check_bool "rows in insertion order" true (Table.rows t = [ [ "2"; "0.5" ]; [ "4"; "0.25" ] ])

let () =
  Alcotest.run "stats"
    [
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
          case "headers and rows" test_table_headers_rows;
        ] );
    ]
