(* fn_bench: robust statistics on known vectors, deterministic
   bootstrap, BENCH_*.json round-trip, compare verdicts on synthetic
   baselines, the measurement loop in smoke mode, and
   bench-completeness — every lib/experiments/e*.ml must have a
   registered kernel, mirroring the registry-completeness test. *)

open Testutil
open Fn_bench

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_median () =
  check_float "odd length" 3.0 (Stats.median [| 5.0; 1.0; 3.0; 2.0; 4.0 |]);
  check_float "even length" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  check_float "singleton" 7.0 (Stats.median [| 7.0 |]);
  check_float "outlier immune" 2.0 (Stats.median [| 1.0; 2.0; 1e12 |]);
  let input = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.median input);
  check_float "input not mutated" 3.0 input.(0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: empty array") (fun () ->
      ignore (Stats.median [||]))

let test_mad () =
  (* median 3, |x - 3| = [2;1;0;1;2], mad = 1 *)
  check_float "odd" 1.0 (Stats.mad [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  check_float "constant" 0.0 (Stats.mad [| 4.0; 4.0; 4.0 |]);
  (* one wild outlier moves the MAD by at most one rank *)
  check_float "outlier robust" 1.0 (Stats.mad [| 1.0; 2.0; 3.0; 4.0; 1e12 |])

let test_trimmed_mean () =
  (* 20% of 10 = 2 trimmed per tail: mean of 3..8 *)
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  check_float "default trim" 5.5 (Stats.trimmed_mean xs);
  check_float "no trim is mean" 5.5 (Stats.trimmed_mean ~trim:0.0 xs);
  (* sorted: 1..9, 1e12; 20% trims two per tail -> mean of 3..8 *)
  check_float "outlier suppressed" 5.5
    (Stats.trimmed_mean [| 9.0; 1.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 1e12; 2.0 |]);
  (* tiny arrays degrade to the plain mean *)
  check_float "short degrades" 2.0 (Stats.trimmed_mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.check_raises "bad trim"
    (Invalid_argument "Stats.trimmed_mean: trim must be in [0, 0.5)") (fun () ->
      ignore (Stats.trimmed_mean ~trim:0.5 [| 1.0 |]))

let test_quantile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "q0 is min" 1.0 (Stats.quantile xs 0.0);
  check_float "q1 is max" 4.0 (Stats.quantile xs 1.0);
  check_float "interpolated" 2.5 (Stats.quantile xs 0.5)

let test_bootstrap_deterministic () =
  let xs = Array.init 30 (fun i -> 100.0 +. float_of_int ((i * 37) mod 17)) in
  let ci seed = Stats.bootstrap_ci ~rng:(Fn_prng.Rng.create seed) xs in
  let lo1, hi1 = ci 7 and lo2, hi2 = ci 7 in
  check_float "same seed, same low" lo1 lo2;
  check_float "same seed, same high" hi1 hi2;
  check_bool "ordered" true (lo1 <= hi1);
  let m = Stats.median xs in
  check_bool "brackets the median" true (lo1 <= m && m <= hi1);
  (* a different seed resamples differently (overwhelmingly likely) *)
  let lo3, hi3 = ci 8 in
  check_bool "seed matters" true (lo3 <> lo1 || hi3 <> hi1);
  let lo, hi = Stats.bootstrap_ci ~rng:(Fn_prng.Rng.create 1) [| 42.0 |] in
  check_float "degenerate low" 42.0 lo;
  check_float "degenerate high" 42.0 hi

(* ------------------------------------------------------------------ *)
(* Measure (smoke mode: deterministic shape, no timing assumptions)    *)
(* ------------------------------------------------------------------ *)

(* One batch of one run, no warmup: what a smoke pass needs. *)
let one_shot =
  { Measure.warmup_ns = 0; target_batch_ns = 0; min_runs = 1; max_runs = 1; budget_ns = 0 }

let test_measure_smoke () =
  let calls = ref 0 in
  let s = Measure.run one_shot (fun () -> incr calls) in
  check_int "kernel ran exactly once" 1 !calls;
  check_int "one sample" 1 s.Measure.runs;
  check_int "batch of one" 1 s.Measure.batch;
  check_int "one time recorded" 1 (Array.length s.Measure.times_ns);
  check_bool "time is positive" true (s.Measure.times_ns.(0) > 0.0)

let test_measure_quick_bounds () =
  let s = Measure.run Measure.quick (fun () -> ()) in
  check_bool "runs within bounds" true
    (s.Measure.runs >= Measure.quick.Measure.min_runs
    && s.Measure.runs <= Measure.quick.Measure.max_runs);
  check_bool "batch at least one" true (s.Measure.batch >= 1);
  check_bool "all samples nonnegative" true (Array.for_all (fun t -> t >= 0.0) s.Measure.times_ns)

(* ------------------------------------------------------------------ *)
(* Baseline JSON round-trip                                            *)
(* ------------------------------------------------------------------ *)

let result name median (lo, hi) =
  {
    Suite.name;
    items = 3;
    stats =
      {
        Suite.runs = 12;
        batch = 4;
        median_ns = median;
        mad_ns = 1.5;
        trimmed_mean_ns = median +. 0.25;
        ci_low_ns = lo;
        ci_high_ns = hi;
        bytes_per_run = 4096.5;
        items_per_sec = 3e9 /. median;
      };
  }

let synthetic_baseline () =
  {
    Baseline.meta =
      { Baseline.suite = "experiments"; git_rev = "abc123"; host = "testhost"; quick = true; created_ns = 1234567890 };
    kernels = [ result "e1_fast" 100.0 (95.0, 105.0); result "e2_slow" 5000.25 (4900.0, 5100.5) ];
  }

let check_result_eq name (a : Suite.result) (b : Suite.result) =
  check_bool (name ^ " name") true (a.Suite.name = b.Suite.name);
  check_int (name ^ " items") a.Suite.items b.Suite.items;
  check_int (name ^ " runs") a.Suite.stats.Suite.runs b.Suite.stats.Suite.runs;
  check_int (name ^ " batch") a.Suite.stats.Suite.batch b.Suite.stats.Suite.batch;
  let eps = 1e-6 in
  check_float_eps eps (name ^ " median") a.Suite.stats.Suite.median_ns b.Suite.stats.Suite.median_ns;
  check_float_eps eps (name ^ " mad") a.Suite.stats.Suite.mad_ns b.Suite.stats.Suite.mad_ns;
  check_float_eps eps (name ^ " trimmed") a.Suite.stats.Suite.trimmed_mean_ns
    b.Suite.stats.Suite.trimmed_mean_ns;
  check_float_eps eps (name ^ " ci low") a.Suite.stats.Suite.ci_low_ns b.Suite.stats.Suite.ci_low_ns;
  check_float_eps eps (name ^ " ci high") a.Suite.stats.Suite.ci_high_ns
    b.Suite.stats.Suite.ci_high_ns;
  check_float_eps eps (name ^ " bytes") a.Suite.stats.Suite.bytes_per_run
    b.Suite.stats.Suite.bytes_per_run;
  check_float_eps 1e-3 (name ^ " items/s") a.Suite.stats.Suite.items_per_sec
    b.Suite.stats.Suite.items_per_sec

let test_json_roundtrip () =
  let b = synthetic_baseline () in
  let json_text = Fn_obs.Jsonx.to_string (Baseline.to_json b) in
  match Fn_obs.Jsonx.parse json_text with
  | None -> Alcotest.fail "serialized baseline did not parse"
  | Some j -> (
    match Baseline.of_json j with
    | Error e -> Alcotest.fail ("decode failed: " ^ e)
    | Ok b' ->
      check_bool "suite" true (b'.Baseline.meta.Baseline.suite = "experiments");
      check_bool "git rev" true (b'.Baseline.meta.Baseline.git_rev = "abc123");
      check_bool "host" true (b'.Baseline.meta.Baseline.host = "testhost");
      check_bool "quick" true b'.Baseline.meta.Baseline.quick;
      check_int "created" 1234567890 b'.Baseline.meta.Baseline.created_ns;
      check_int "kernel count" 2 (List.length b'.Baseline.kernels);
      List.iter2 (fun a b -> check_result_eq a.Suite.name a b) b.Baseline.kernels
        b'.Baseline.kernels)

let test_json_file_roundtrip () =
  let b = synthetic_baseline () in
  let dir = Filename.temp_file "fn_bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Baseline.save ~dir b in
  check_bool "filename" true (Filename.basename path = "BENCH_experiments.json");
  (match Baseline.load path with
  | Error e -> Alcotest.fail ("load failed: " ^ e)
  | Ok b' -> check_int "kernels survive the file" 2 (List.length b'.Baseline.kernels));
  Sys.remove path;
  Sys.rmdir dir

let test_json_rejects () =
  let reject name text =
    match Fn_obs.Jsonx.parse text with
    | None -> ()
    | Some j -> (
      match Baseline.of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should not decode" name)
  in
  reject "wrong version" {|{"schema_version": 99, "suite": "x", "git_rev": "r", "host": "h", "quick": false, "created_ns": 0, "kernels": []}|};
  reject "missing suite" {|{"schema_version": 1, "git_rev": "r", "host": "h", "quick": false, "created_ns": 0, "kernels": []}|};
  reject "kernels not a list" {|{"schema_version": 1, "suite": "x", "git_rev": "r", "host": "h", "quick": false, "created_ns": 0, "kernels": 3}|};
  check_bool "load of missing file errors" true
    (match Baseline.load "/nonexistent/BENCH_x.json" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Compare verdicts                                                    *)
(* ------------------------------------------------------------------ *)

let baseline_of kernels =
  {
    Baseline.meta =
      { Baseline.suite = "experiments"; git_rev = "base"; host = "h"; quick = false; created_ns = 0 };
    kernels;
  }

let test_compare_verdicts () =
  let base = baseline_of [ result "a" 100.0 (98.0, 102.0) ] in
  let verdict cur =
    let c = Compare.run ~threshold:0.25 ~baseline:base ~current:(baseline_of [ cur ]) in
    match c.Compare.entries with
    | [ e ] -> e.Compare.verdict
    | _ -> Alcotest.fail "expected exactly one compared kernel"
  in
  check_bool "identical is unchanged" true (verdict (result "a" 100.0 (98.0, 102.0)) = Compare.Unchanged);
  check_bool "2x slower regresses" true (verdict (result "a" 200.0 (195.0, 205.0)) = Compare.Regressed);
  check_bool "2x faster improves" true (verdict (result "a" 50.0 (48.0, 52.0)) = Compare.Improved);
  check_bool "within threshold unchanged" true
    (verdict (result "a" 115.0 (113.0, 117.0)) = Compare.Unchanged);
  (* big relative move but overlapping CIs: still unchanged *)
  check_bool "ci overlap protects" true
    (verdict (result "a" 160.0 (99.0, 220.0)) = Compare.Unchanged);
  (* beyond threshold and separated, just barely *)
  check_bool "just past threshold regresses" true
    (verdict (result "a" 126.0 (124.0, 128.0)) = Compare.Regressed)

let test_compare_threshold () =
  let base = baseline_of [ result "a" 100.0 (99.9, 100.1) ] in
  let cur = baseline_of [ result "a" 140.0 (139.9, 140.1) ] in
  let with_threshold t =
    match (Compare.run ~threshold:t ~baseline:base ~current:cur).Compare.entries with
    | [ e ] -> e.Compare.verdict
    | _ -> Alcotest.fail "one entry expected"
  in
  check_bool "tight gate trips" true (with_threshold 0.10 = Compare.Regressed);
  check_bool "loose gate passes" true (with_threshold 0.50 = Compare.Unchanged)

let test_compare_missing_added () =
  let base = baseline_of [ result "a" 100.0 (98.0, 102.0); result "gone" 10.0 (9.0, 11.0) ] in
  let cur = baseline_of [ result "a" 100.0 (98.0, 102.0); result "fresh" 20.0 (19.0, 21.0) ] in
  let c = Compare.run ~threshold:0.25 ~baseline:base ~current:cur in
  check_bool "missing tracked" true (c.Compare.missing = [ "gone" ]);
  check_bool "added tracked" true (c.Compare.added = [ "fresh" ]);
  check_bool "a kernel vanishing fails the gate" false (Compare.gate_passes c);
  let clean = Compare.run ~threshold:0.25 ~baseline:(baseline_of [ result "a" 100.0 (98.0, 102.0) ])
      ~current:cur
  in
  check_bool "added alone passes the gate" true (Compare.gate_passes clean);
  check_int "delta pct" 0
    (int_of_float (List.hd (Compare.run ~threshold:0.25 ~baseline:base ~current:cur).Compare.entries).Compare.delta_pct)

(* ------------------------------------------------------------------ *)
(* Suite registration                                                  *)
(* ------------------------------------------------------------------ *)

let test_suite_lookup () =
  let ks =
    [
      Suite.kernel ~suite:"experiments" "alpha" (fun () -> 1);
      Suite.kernel ~suite:"experiments" "beta" (fun () -> 2);
      Suite.kernel ~suite:"ablations" "gamma" (fun () -> 3);
    ]
  in
  check_bool "suites in order" true (Suite.suites ks = [ "experiments"; "ablations" ])

let test_suite_run_groups () =
  let ks =
    [
      Suite.kernel ~suite:"g1" ~items:10 "one" (fun () -> ());
      Suite.kernel ~suite:"g2" "two" (fun () -> ());
      Suite.kernel ~suite:"g1" "three" (fun () -> ());
    ]
  in
  let grouped = Suite.run ~filter:(fun n -> n <> "three") one_shot ks in
  check_int "two groups" 2 (List.length grouped);
  (match grouped with
  | [ ("g1", [ r ]); ("g2", [ _ ]) ] ->
    check_bool "name" true (r.Suite.name = "one");
    check_int "items kept" 10 r.Suite.items;
    check_bool "throughput positive" true (r.Suite.stats.Suite.items_per_sec > 0.0)
  | _ -> Alcotest.fail "grouping mismatch");
  (* bootstrap seeding is per-name: stats of a degenerate 1-sample run
     are its sample with a collapsed CI *)
  match grouped with
  | ("g1", [ r ]) :: _ ->
    check_float "collapsed ci" r.Suite.stats.Suite.median_ns r.Suite.stats.Suite.ci_low_ns
  | _ -> Alcotest.fail "missing g1"

(* ------------------------------------------------------------------ *)
(* Bench completeness: every experiment source has a kernel            *)
(* ------------------------------------------------------------------ *)

let test_bench_covers_experiments () =
  let candidates =
    [
      Filename.concat ".." (Filename.concat "lib" "experiments");
      Filename.concat "lib" "experiments";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.fail "lib/experiments not found from test cwd"
  | Some dir ->
    let prefix_of_file f =
      (* "e06_prune2_random.ml" -> "e6_" *)
      if String.length f > 3 && f.[0] = 'e' && Filename.check_suffix f ".ml" then
        match int_of_string_opt (String.sub f 1 2) with
        | Some n -> Some (Printf.sprintf "e%d_" n)
        | None -> None
      else None
    in
    let prefixes = Sys.readdir dir |> Array.to_list |> List.filter_map prefix_of_file in
    check_bool "found experiment sources" true (prefixes <> []);
    let experiment_kernels =
      List.filter (fun (k : Suite.kernel) -> k.Suite.suite = Kernels.experiments) Kernels.all
    in
    let has_kernel prefix =
      List.exists
        (fun (k : Suite.kernel) ->
          String.length k.Suite.name >= String.length prefix
          && String.sub k.Suite.name 0 (String.length prefix) = prefix)
        experiment_kernels
    in
    List.iter
      (fun p ->
        if not (has_kernel p) then
          Alcotest.failf "experiment source %s* has no registered bench kernel" p)
      prefixes;
    check_int "one bench kernel per experiment source" (List.length prefixes)
      (List.length experiment_kernels);
    (* and the registry agrees with the bench suite *)
    check_int "kernel count matches Registry.all"
      (List.length Fn_experiments.Registry.all)
      (List.length experiment_kernels)

let test_kernel_names_unique () =
  let names = List.map (fun (k : Suite.kernel) -> k.Suite.name) Kernels.all in
  let sorted = List.sort_uniq String.compare names in
  check_int "no duplicate kernel names" (List.length names) (List.length sorted)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Gate and report rendering                                           *)
(* ------------------------------------------------------------------ *)

(* a regressed, b improved, c unchanged; d only in the baseline, e only
   in the current run *)
let mixed_compare () =
  let base =
    baseline_of
      [
        result "a" 100.0 (98.0, 102.0);
        result "b" 100.0 (98.0, 102.0);
        result "c" 100.0 (98.0, 102.0);
        result "d" 100.0 (98.0, 102.0);
      ]
  in
  let cur =
    baseline_of
      [
        result "a" 200.0 (195.0, 205.0);
        result "b" 50.0 (48.0, 52.0);
        result "c" 100.0 (98.0, 102.0);
        result "e" 10.0 (9.0, 11.0);
      ]
  in
  Compare.run ~threshold:0.25 ~baseline:base ~current:cur

let check_string = Alcotest.(check string)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let names entries = List.map (fun (e : Compare.entry) -> e.Compare.name) entries

let test_regressions_and_significant () =
  let c = mixed_compare () in
  check_bool "regressions" true (names (Compare.regressions c) = [ "a" ]);
  check_bool "significant, baseline order" true (names (Compare.significant c) = [ "a"; "b" ]);
  check_bool "verdict names" true
    (List.map Compare.verdict_name [ Compare.Improved; Compare.Regressed; Compare.Unchanged ]
    = [ "improved"; "regressed"; "unchanged" ])

let test_compare_table_notes () =
  let text = Report.compare_table (mixed_compare ()) in
  let has s = contains text s in
  check_bool "regressed row" true (has "regressed");
  check_bool "missing kernel noted" true (has "missing from current run: d");
  check_bool "new kernel noted" true (has "not in baseline (new): e")

let test_gate_summary () =
  let failed = Report.gate_summary ~threshold:0.25 (mixed_compare ()) in
  check_string "failed gate" "bench gate FAILED: 1 regressed, 1 improved (refresh baseline), 1 missing of 3 (threshold 25%)"
    failed;
  let same = baseline_of [ result "a" 100.0 (98.0, 102.0) ] in
  check_string "passing gate" "bench gate OK: 1 kernels within 25% of baseline"
    (Report.gate_summary ~threshold:0.25 (Compare.run ~threshold:0.25 ~baseline:same ~current:same))

let test_suite_table_rows () =
  let text = Report.suite_table ("experiments", [ result "alpha" 100.0 (98.0, 102.0); result "beta" 2e6 (1.9e6, 2.1e6) ]) in
  let has s = contains text s in
  check_bool "names the suite" true (has "experiments");
  check_bool "one row per kernel" true (has "alpha" && has "beta");
  check_bool "medians pretty-printed" true (has "100 ns" && has "2.00 ms")

let test_of_run_stamps () =
  let b = Baseline.of_run ~suite:"kernels" ~quick:true [ result "a" 1.0 (1.0, 1.0) ] in
  check_string "suite" "kernels" b.Baseline.meta.Baseline.suite;
  check_bool "quick" true b.Baseline.meta.Baseline.quick;
  check_bool "stamped" true (b.Baseline.meta.Baseline.created_ns > 0);
  check_bool "kernels kept" true (List.length b.Baseline.kernels = 1)

let test_default_options () =
  let d = Measure.default and q = Measure.quick in
  check_bool "run bounds ordered" true (1 <= d.Measure.min_runs && d.Measure.min_runs <= d.Measure.max_runs);
  check_bool "default samples longer than quick" true
    (d.Measure.budget_ns > q.Measure.budget_ns && d.Measure.warmup_ns > q.Measure.warmup_ns)

let () =
  Alcotest.run "fn_bench"
    [
      ( "stats",
        [
          case "median" test_median;
          case "mad" test_mad;
          case "trimmed mean" test_trimmed_mean;
          case "quantile" test_quantile;
          case "bootstrap deterministic" test_bootstrap_deterministic;
        ] );
      ( "measure",
        [
          case "smoke shape" test_measure_smoke;
          case "quick bounds" test_measure_quick_bounds;
          case "default options" test_default_options;
        ] );
      ( "baseline",
        [
          case "json roundtrip" test_json_roundtrip;
          case "file roundtrip" test_json_file_roundtrip;
          case "rejects bad input" test_json_rejects;
          case "of_run stamps the run" test_of_run_stamps;
        ] );
      ( "compare",
        [
          case "verdicts" test_compare_verdicts;
          case "threshold" test_compare_threshold;
          case "missing and added" test_compare_missing_added;
          case "regressions and significant" test_regressions_and_significant;
          case "compare table notes" test_compare_table_notes;
          case "gate summary" test_gate_summary;
          case "suite table rows" test_suite_table_rows;
        ] );
      ( "suite",
        [
          case "lookup" test_suite_lookup;
          case "run groups" test_suite_run_groups;
          case "covers all experiments" test_bench_covers_experiments;
          case "unique names" test_kernel_names_unique;
        ] );
    ]
