(* End-to-end: the fast paper-validation experiments must pass their
   own checks in quick mode.  The slow ones (E1, E4, E6, E8, E9) run
   from bin/experiments; here we pin the cheap ones into the test
   suite so a regression in any layer breaks `dune runtest`. *)

open Testutil

let run_and_check id =
  match Fn_experiments.Registry.find id with
  | None -> Alcotest.failf "experiment %s not registered" id
  | Some e ->
    let outcome = e.Fn_experiments.Registry.run (Fn_experiments.Workload.config ~quick:true ~seed:4242 ()) in
    List.iter
      (fun (name, ok) ->
        if not ok then Alcotest.failf "%s check failed: %s" id name)
      outcome.Fn_experiments.Outcome.checks

let test_registry_complete () =
  check_int "fourteen experiments" 14 (List.length Fn_experiments.Registry.all);
  List.iteri
    (fun i e ->
      let expected = Printf.sprintf "E%d" (i + 1) in
      if e.Fn_experiments.Registry.id <> expected then
        Alcotest.failf "expected %s at position %d" expected i)
    Fn_experiments.Registry.all;
  check_bool "case-insensitive lookup" true
    (match Fn_experiments.Registry.find "e7" with Some _ -> true | None -> false);
  check_bool "unknown" true (Fn_experiments.Registry.find "E15" = None)

(* Registry vs. the filesystem: every lib/experiments/e*.ml must be
   registered, so adding an experiment file without wiring it into
   Registry.all fails the suite.  The test runs from _build/default/test
   (the dune glob dep copies the sources next door). *)
let test_registry_covers_sources () =
  let candidates =
    [
      Filename.concat ".." (Filename.concat "lib" "experiments");
      Filename.concat "lib" "experiments";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.fail "lib/experiments not found from test cwd"
  | Some dir ->
    let id_of_file f =
      (* "e07_chain_decay.ml" -> "E7"; "e12_x.ml" -> "E12" *)
      if String.length f > 3 && f.[0] = 'e' && Filename.check_suffix f ".ml" then
        match int_of_string_opt (String.sub f 1 2) with
        | Some n -> Some (Printf.sprintf "E%d" n)
        | None -> None
      else None
    in
    let ids = Sys.readdir dir |> Array.to_list |> List.filter_map id_of_file in
    check_bool "found experiment sources" true (ids <> []);
    List.iter
      (fun id ->
        if Fn_experiments.Registry.find id = None then
          Alcotest.failf "%s has a source file but is not in Registry.all" id)
      ids;
    check_int "one registry entry per source file"
      (List.length ids)
      (List.length Fn_experiments.Registry.all)

let test_outcome_render () =
  match Fn_experiments.Registry.find "E2" with
  | None -> Alcotest.fail "E2 missing"
  | Some e ->
    let o = e.Fn_experiments.Registry.run (Fn_experiments.Workload.config ~quick:true ~seed:1 ()) in
    let s = Fn_experiments.Outcome.render o in
    check_bool "mentions id" true (String.length s > 10 && String.sub s 4 2 = "E2")

module W = Fn_experiments.Workload
module O = Fn_experiments.Outcome

let test_workload_helpers () =
  check_float "mean" 2.0 (W.mean_of [ 1.0; 2.0; 3.0 ]);
  Alcotest.check_raises "empty mean" (Invalid_argument "Workload.mean_of: empty") (fun () ->
      ignore (W.mean_of []));
  check_bool "cells" true (W.bool_cell true = "yes" && W.bool_cell false = "NO");
  let g = Fn_graph.Graph.of_edges 6 [ (0, 1); (1, 2); (3, 4) ] in
  (* the largest alive component over all 6 nodes *)
  check_float "gamma" 0.5 (W.gamma_of_alive g (Fn_graph.Bitset.create_full 6));
  check_float "gamma under a mask" (2.0 /. 6.0)
    (W.gamma_of_alive g (Fn_graph.Bitset.of_list 6 [ 0; 1; 3; 4; 5 ]))

let test_workload_expander () =
  let g = W.expander (Fn_prng.Rng.create 3) ~n:64 ~d:4 in
  check_int "nodes" 64 (Fn_graph.Graph.num_nodes g);
  check_bool "4-regular" true (Fn_graph.Check.regular g 4);
  check_bool "connected" true (Fn_graph.Components.is_connected (Fn_graph.Gview.Csr g))

let test_outcome_passed_and_json () =
  let table = Fn_stats.Table.create [ "k"; "v" ] in
  Fn_stats.Table.add_row table [ "1"; "0.5" ];
  let o = { O.id = "E0"; title = "t"; table; checks = [ ("a", true); ("b", true) ]; notes = [ "n" ] } in
  check_bool "all passed" true (O.all_passed o);
  check_bool "one failing check" false (O.all_passed { o with O.checks = [ ("a", true); ("b", false) ] });
  match Option.bind (Fn_obs.Jsonx.parse (O.to_json o)) O.of_jsonx with
  | None -> Alcotest.fail "to_json does not decode"
  | Some back ->
    check_bool "json roundtrip" true
      (back.O.id = "E0" && back.O.checks = o.O.checks && back.O.notes = [ "n" ]
      && Fn_stats.Table.rows back.O.table = [ [ "1"; "0.5" ] ])

let () =
  Alcotest.run "experiments_quick"
    [
      ( "registry",
        [
          case "complete" test_registry_complete;
          case "covers source files" test_registry_covers_sources;
          case "render" test_outcome_render;
          case "workload helpers" test_workload_helpers;
          case "workload expander" test_workload_expander;
          case "outcome passed and json" test_outcome_passed_and_json;
        ] );
      ( "outcomes",
        [
          case "E2 chain expansion" (fun () -> run_and_check "E2");
          case "E3 chain attack" (fun () -> run_and_check "E3");
          case "E5 random chain" (fun () -> run_and_check "E5");
          case "E7 mesh span" (fun () -> run_and_check "E7");
          case "E10 span conjecture" (fun () -> run_and_check "E10");
          case "E11 routing" (fun () -> run_and_check "E11");
          case "E12 embedding" (fun () -> run_and_check "E12");
          case "E13 multibutterfly" (fun () -> run_and_check "E13");
          case "E14 transient churn" (fun () -> run_and_check "E14");
        ] );
    ]
