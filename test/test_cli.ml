(* End-to-end tests of the command-line binaries: spawn one, capture
   stdout, compare.  The test runs from _build/default/test, so the
   binaries sit in ../bin. *)

open Testutil

let bin_path name =
  (* cwd is _build/default/test under `dune runtest`, the project root
     under `dune exec` *)
  let candidates =
    [
      Filename.concat (Filename.concat ".." "bin") name;
      List.fold_left Filename.concat "_build" [ "default"; "bin"; name ];
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let binary = bin_path "faultnet_cli.exe"

let run_bin bin args =
  let out = Filename.temp_file "faultnet_cli" ".out" in
  let cmd = Printf.sprintf "%s %s > %s 2>&1" bin args out in
  let code = Sys.command cmd in
  let ic = open_in out in
  let text =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove out)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, String.trim text)

let run_cli args = run_bin binary args

let contains hay needle =
  let nl = String.length needle and sl = String.length hay in
  let rec scan i = i + nl <= sl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let test_gen_mesh () =
  let code, out = run_cli "gen -t mesh:3x3" in
  check_int "exit" 0 code;
  Alcotest.(check string) "edge list"
    (String.concat "\n"
       [
         "# nodes 9 edges 12"; "0 1"; "0 3"; "1 2"; "1 4"; "2 5"; "3 4"; "3 6"; "4 5"; "4 7";
         "5 8"; "6 7"; "7 8";
       ])
    out

(* A spec the parser or a generator refuses is a usage error: exit
   124 with one line on stderr, never an uncaught exception (125). *)
let test_gen_rejects_bad_specs () =
  List.iter
    (fun spec ->
      let code, out = run_cli ("gen -t " ^ spec) in
      check_int (spec ^ ": exit") 124 code;
      check_bool (spec ^ ": one line") false (String.contains out '\n');
      check_bool (spec ^ ": no uncaught exception") false (contains out "exception"))
    [ "hypercube:abc"; "expander:255:3"; "cycle:2"; "mesh:0x4" ]

(* --epsilon and --fault-p are checked before the graph is built: a
   value outside its range, NaN included, is exit 124 with one line and
   no [graph:] line, never an uncaught Invalid_argument (125). *)
let test_bad_numbers_are_usage_errors () =
  List.iter
    (fun args ->
      let code, out = run_cli (args ^ " -t torus:10x10 --seed 3") in
      check_int (args ^ ": exit") 124 code;
      check_bool (args ^ ": one line") false (String.contains out '\n');
      check_bool (args ^ ": no graph line") false (contains out "graph:");
      check_bool (args ^ ": no uncaught exception") false (contains out "exception"))
    [
      "prune --epsilon 1.5";
      "prune --epsilon 0";
      "prune --epsilon nan";
      "prune --fault-p 1.5";
      "prune --fault-p=-0.1";
      "prune --fault-p nan";
      "route --fault-p 1.5";
      "report --fault-p nan";
    ]

(* The checks are closed where the range is: --fault-p 0 and 1 are
   valid (no faults, every node faulty), and so is an epsilon just
   inside (0, 1). *)
let test_range_ends_accepted () =
  List.iter
    (fun (args, want) ->
      let code, out = run_cli (args ^ " -t torus:10x10 --seed 3") in
      check_int (args ^ ": exit") 0 code;
      check_bool (args ^ ": " ^ want) true (contains out want))
    [
      ("prune --fault-p 0", "faults: 0\n");
      ("prune --fault-p 1", "faults: 100\n");
      ("prune --epsilon 0.999", "graph: 100 nodes");
      ("route --fault-p 1", "packets 0");
    ]

(* A budget the adversary cannot spend is a usage error (exit 124, one
   line), never an uncaught Invalid_argument; the whole graph is a
   valid budget. *)
let test_attack_budget_range () =
  List.iter
    (fun args ->
      let code, out = run_cli ("attack -t torus:10x10 --seed 3 " ^ args) in
      check_int (args ^ ": exit") 124 code;
      check_bool (args ^ ": one line") false (String.contains out '\n');
      check_bool (args ^ ": names the range") true (contains out "[0, 100]");
      check_bool (args ^ ": no uncaught exception") false (contains out "exception"))
    [ "--budget 101"; "--budget=-1"; "--budget 101 --strategy random" ];
  let code, out = run_cli "attack -t torus:10x10 --seed 3 --budget 100" in
  check_int "whole graph: exit" 0 code;
  check_bool "whole graph: every node faulty" true (contains out "faults: 100;")

(* With fewer than two survivors there is nothing to report on: one
   line and exit 124, not an internal error. *)
let test_report_needs_two_survivors () =
  let code, out = run_cli "report -t torus:10x10 --seed 3 --fault-p 1" in
  check_int "exit" 124 code;
  check_bool "one line" false (String.contains out '\n');
  check_bool "says why" true (contains out "at least 2 surviving nodes, got 0");
  check_bool "no uncaught exception" false (contains out "exception")

let test_expansion_exact () =
  let code, out = run_cli "expansion -t mesh:4x4 --objective edge" in
  check_int "exit" 0 code;
  let lines = String.split_on_char '\n' out in
  check_bool "reports exact value" true
    (List.mem "edge expansion (exact): 0.500000 (witness side 8)" lines);
  check_bool "and its lower bound" true (List.mem "lower bound: 0.500000" lines)

(* [lower] is a bound only on the exact branch; off it, the CLI must
   call it what it is.  Two 64x64 tori joined by one edge (loaded with
   -i) take the heuristic branch, where the estimate (0.0012) exceeds
   the witnessed bridge cut (1/4096). *)
let test_expansion_lower_labels () =
  let m = 64 in
  let sq = m * m in
  let torus t =
    List.concat
      (List.init sq (fun v ->
           let x = v mod m and y = v / m in
           [ (t + v, t + (y * m) + ((x + 1) mod m)); (t + v, t + (((y + 1) mod m) * m) + x) ]))
  in
  let g =
    Fn_graph.Graph.of_edges (2 * sq)
      (((0, sq + ((m / 2) * m) + (m / 2)) :: torus 0) @ torus sq)
  in
  let path = Filename.temp_file "faultnet_bridged" ".edges" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Fn_graph.Gio.save path g;
      let code, out = run_cli (Printf.sprintf "expansion -i %s --objective edge" path) in
      check_int "exit" 0 code;
      let lines = String.split_on_char '\n' out in
      let starts prefix = List.exists (String.starts_with ~prefix) lines in
      check_bool "heuristic branch" true (starts "edge expansion (heuristic upper bound):");
      check_bool "Cheeger estimate line" true (starts "Cheeger estimate: ");
      check_bool "no bound claimed" false (starts "lower bound" || starts "certified"))

let test_connectivity () =
  let code, out = run_cli "connectivity -t hypercube:3" in
  check_int "exit" 0 code;
  check_bool "edge connectivity line" true
    (String.split_on_char '\n' out
    |> List.exists (fun l -> l = "edge connectivity: 3 (min degree 3)"))

let test_file_roundtrip () =
  let path = Filename.temp_file "faultnet" ".edges" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let code, _ = run_cli (Printf.sprintf "gen -t cycle:5 -o %s" path) in
      check_int "gen exit" 0 code;
      let code, out = run_cli (Printf.sprintf "expansion -i %s" path) in
      check_int "expansion exit" 0 code;
      check_bool "cycle value" true
        (String.split_on_char '\n' out
        |> List.exists (fun l -> l = "node expansion (exact): 1.000000 (witness side 2)")))

let test_unknown_experiment_fails () =
  let code, out = run_bin (bin_path "experiments.exe") "E99" in
  check_int "exit 2" 2 code;
  check_bool "mentions the id" true (contains out "E99")

(* ------------------------------------------------------------------ *)
(* lint binary: --only / --explain                                     *)
(* ------------------------------------------------------------------ *)

let run_lint args = run_bin (bin_path "lint.exe") args

(* A scratch tree holding one file that violates two scope-aware rules:
   the closure handed to Par.map mutates a captured ref and draws from a
   shared rng. *)
let with_bad_tree f =
  let dir = Filename.temp_file "fn_lint_tree" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let file = Filename.concat dir "sample.ml" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists file then Sys.remove file;
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () ->
      let oc = open_out file in
      output_string oc
        "let f rng xs =\n\
        \  let hits = ref 0 in\n\
        \  Par.map (fun x -> hits := !hits + Fn_prng.Rng.int rng x) xs\n";
      close_out oc;
      f dir)

let test_lint_only () =
  with_bad_tree (fun dir ->
      let code, out = run_lint (Printf.sprintf "--root %s sample.ml" dir) in
      check_int "all rules: findings exit 1" 1 code;
      check_bool "all rules: capture finding" true
        (contains out "par-capture-mutation");
      check_bool "all rules: rng finding" true (contains out "rng-unsplit-in-par");
      let code, out =
        run_lint
          (Printf.sprintf "--root %s --only rng-unsplit-in-par sample.ml" dir)
      in
      check_int "--only: findings exit 1" 1 code;
      check_bool "--only: rng finding kept" true
        (contains out "rng-unsplit-in-par");
      check_bool "--only: capture finding filtered" false
        (contains out "par-capture-mutation");
      let code, out =
        run_lint
          (Printf.sprintf "--root %s --only dls-outside-obs sample.ml" dir)
      in
      check_int "--only non-matching rule: clean exit" 0 code;
      check_bool "--only non-matching rule: no output" true (out = ""))

let test_lint_explain () =
  let code, out = run_lint "--explain par-capture-mutation" in
  check_int "explain exit" 0 code;
  check_bool "explain names the rule" true (contains out "par-capture-mutation");
  check_bool "explain shows severity" true (contains out "error");
  check_bool "explain shows suppression template" true (contains out "lint: allow")

let test_lint_unknown_rule () =
  let code, out = run_lint "--only no-such-rule" in
  check_int "unknown rule exit" 2 code;
  check_bool "unknown rule message" true (contains out "unknown rule");
  let code, _ = run_lint "--explain no-such-rule" in
  check_int "unknown rule via --explain" 2 code

let test_determinism_across_runs () =
  let _, a = run_cli "report -t torus:8x8 --fault-p 0.1 --seed 5" in
  let _, b = run_cli "report -t torus:8x8 --fault-p 0.1 --seed 5" in
  check_bool "same seed, same report" true (a = b);
  let _, c = run_cli "report -t torus:8x8 --fault-p 0.1 --seed 6" in
  check_bool "different seed, different faults" true (a <> c)

let daemon = bin_path "faultnetd.exe"

(* --deadline reaches every query: under an impossible budget queries
   answer [err deadline ...] while apply and audit! stay exempt; a
   generous budget answers exactly as no budget does. *)
let test_faultnetd_deadline () =
  let inp = Filename.temp_file "faultnetd_deadline" ".in" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists inp then Sys.remove inp)
    (fun () ->
      Out_channel.with_open_bin inp (fun oc ->
          output_string oc "alpha?\napply f3\nalive? 3\nstats?\naudit!\nquit\n");
      let run flags =
        let code, out =
          run_bin daemon (Printf.sprintf "--topology torus:8x8 --seed 3 %s < %s" flags inp)
        in
        check_int (flags ^ ": exit") 0 code;
        String.split_on_char '\n' out
      in
      (match run "--deadline 1e-12" with
      | [ alpha; apply; alive; stats; audit; bye ] ->
        List.iter
          (fun (name, line) ->
            check_bool (name ^ " refused") true
              (String.starts_with ~prefix:"err deadline query exceeded" line))
          [ ("alpha?", alpha); ("alive?", alive); ("stats?", stats) ];
        check_bool "apply exempt" true (apply = "ok applied=1 alive=63");
        check_bool "audit! exempt" true (String.starts_with ~prefix:"ok kept=" audit);
        check_bool "quit" true (bye = "ok bye")
      | lines -> Alcotest.failf "expected six replies, got %d" (List.length lines));
      check_bool "a generous budget changes no reply" true
        (run "--deadline 3600" = run ""))

(* The supervision flags left with the layer they configured: each is
   refused before anything runs, never accepted and ignored. *)
let test_experiments_refuses_removed_flags () =
  List.iter
    (fun flag ->
      let code, out = run_bin (bin_path "experiments.exe") (flag ^ " E2") in
      check_int (flag ^ ": exit") 2 code;
      check_bool (flag ^ ": named") true (contains out (List.hd (String.split_on_char ' ' flag)));
      check_bool (flag ^ ": nothing ran") false (contains out "==="))
    [ "--deadline 5"; "--retries 2"; "--chaos 0.1"; "--chaos-seed 3"; "--online" ]

(* Flag values the generators or the engine refuse are usage errors:
   exit 2 with a one-line "faultnetd:" message on stderr, never an
   uncaught exception, and no journal opened.  NaN fails every
   comparison, so each range check must refuse it too. *)
let test_faultnetd_rejects_bad_values () =
  let journal = Filename.temp_file "faultnetd_bad" ".jsonl" in
  Sys.remove journal;
  let err = Filename.temp_file "faultnetd_bad" ".err" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ journal; err ])
    (fun () ->
      List.iter
        (fun args ->
          let code =
            Sys.command (Printf.sprintf "%s %s < /dev/null > /dev/null 2> %s" daemon args err)
          in
          let text = In_channel.with_open_bin err In_channel.input_all in
          check_int (args ^ ": exit") 2 code;
          check_bool (args ^ ": faultnetd: message") true
            (String.starts_with ~prefix:"faultnetd:" text);
          check_int (args ^ ": one stderr line") 1
            (List.length (String.split_on_char '\n' (String.trim text)));
          check_bool (args ^ ": no uncaught exception") false (contains text "Fatal error"))
        [
          "--topology expander:5:3";
          "--topology torus:4x4 --radius 0";
          "--topology torus:4x4 --epsilon -1";
          "--topology torus:4x4 --max-dirty-frac -1";
          "--topology torus:4x4 --journal " ^ journal ^ " --compact-every -1";
          "--topology torus:4x4 --journal " ^ journal ^ " --deadline 0";
          "--topology torus:4x4 --journal " ^ journal ^ " --deadline -1";
          "--topology torus:4x4 --journal " ^ journal ^ " --deadline nan";
          "--topology torus:4x4 --journal " ^ journal ^ " --alpha nan";
          "--topology torus:4x4 --journal " ^ journal ^ " --epsilon nan";
          "--topology torus:4x4 --journal " ^ journal ^ " --max-dirty-frac nan";
        ];
      check_bool "no journal opened" false (Sys.file_exists journal))

(* An error exit still closes the --trace sink and prints the
   --metrics report: resume a journal whose second batch faults node 3
   again, so replay applies the first batch and then refuses. *)
let test_faultnetd_error_exit_finishes () =
  let tmp suffix = Filename.temp_file "faultnetd_refused" suffix in
  let journal = tmp ".jsonl" and trace = tmp ".trace" and err = tmp ".err" in
  Sys.remove journal;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ journal; trace; err ])
    (fun () ->
      let args = "--topology torus:4x4 --seed 1 --journal " ^ journal in
      check_int "journaled session" 0
        (Sys.command (Printf.sprintf "printf 'apply f3\\nquit\\n' | %s %s > /dev/null" daemon args));
      Out_channel.with_open_gen [ Open_append; Open_text ] 0o644 journal (fun oc ->
          output_string oc
            "{\"kind\":\"trial\",\"scope\":\"online.batch\",\"index\":1,\"value\":[\"f3\"]}\n");
      let code =
        Sys.command
          (Printf.sprintf "%s %s --resume --trace %s --metrics < /dev/null > /dev/null 2> %s" daemon
             args trace err)
      in
      check_int "refused resume exits 1" 1 code;
      let lines =
        In_channel.with_open_bin trace In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> not (String.equal l ""))
      in
      check_bool "trace not empty" true (List.length lines > 0);
      List.iter
        (fun l -> check_bool ("trace line parses: " ^ l) true (Option.is_some (Fn_obs.Jsonx.parse l)))
        lines;
      let text = In_channel.with_open_bin err In_channel.input_all in
      check_bool "refusal on stderr" true (contains text "faultnetd: journal replay rejected batch 1");
      check_bool "metrics report on stderr" true (contains text "online.batches"))

(* No journaled result depends on the domain count: a journal that
   --domains 2 wrote and compacted (so its snapshot carries the
   digest, alpha bits included) resumes without --domains and with
   --domains 3, and state? prints the writer's last digest.  On the
   session's masks multi-start refinement changes alpha, so an
   estimator that forked on the domain count would fail here. *)
let test_faultnetd_resume_across_domains () =
  let tmp suffix = Filename.temp_file "faultnetd_domains" suffix in
  let journal = tmp ".jsonl" and session = tmp ".session" and out = tmp ".out" in
  Sys.remove journal;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ journal; session; out ])
    (fun () ->
      let run flags lines =
        Out_channel.with_open_bin session (fun oc ->
            List.iter (fun l -> output_string oc (l ^ "\n")) lines);
        let code =
          Sys.command
            (Printf.sprintf
               "%s --topology expander:256:6 --seed 3 --journal %s --compact-every 2 %s < %s > %s"
               daemon journal flags session out)
        in
        let digests =
          In_channel.with_open_bin out In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (String.starts_with ~prefix:"ok digest=")
        in
        (code, digests)
      in
      let code, digests =
        run "--domains 2"
          [
            "apply f32 f130"; "alpha?"; "apply f253"; "alpha?";
            "apply f241 f194 f107 f48 f249 f14 f199 f221"; "alpha?"; "state?"; "quit";
          ]
      in
      check_int "writer exits 0" 0 code;
      let written = match digests with [ d ] -> d | _ -> Alcotest.fail "writer printed no digest" in
      List.iter
        (fun flags ->
          let code, digests = run flags [ "state?"; "quit" ] in
          check_int (flags ^ ": exit") 0 code;
          check_bool (flags ^ ": writer's digest") true (digests = [ written ]))
        [ "--resume"; "--resume --domains 3" ])

(* A --trace that cannot be written has one defined response in all
   three binaries.  A path under a missing directory is refused before
   any work: exit 2 (124 from faultnet_cli, a usage error) and one
   line.  A write that fails later (/dev/full: a full disk) still lets
   the run print every table, the summary line and the --metrics
   report, then names the file, with exit 1. *)
let missing_dir_trace = "/nonexistent-faultnet-dir/t.jsonl"

let run_split bin args =
  let out = Filename.temp_file "fn_trace" ".out" and err = Filename.temp_file "fn_trace" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let code = Sys.command (Printf.sprintf "%s %s > %s 2> %s" bin args out err) in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (code, read out, read err))

let one_line text = List.length (String.split_on_char '\n' (String.trim text)) = 1

let last_line text = List.hd (List.rev (String.split_on_char '\n' (String.trim text)))

let test_experiments_trace_failures () =
  let exp = bin_path "experiments.exe" in
  let code, out, err = run_split exp ("--quick --trace " ^ missing_dir_trace ^ " E2") in
  check_int "missing dir: exit" 2 code;
  check_bool "missing dir: nothing ran" true (out = "");
  check_bool "missing dir: one line naming the path" true
    (one_line err && contains err missing_dir_trace);
  if Sys.file_exists "/dev/full" then begin
    let code, out, err = run_split exp "--quick --seed 7 --metrics --trace /dev/full E2 E7" in
    check_int "full disk: exit" 1 code;
    check_bool "full disk: both tables" true (contains out "E2" && contains out "E7");
    check_bool "full disk: summary line" true (contains out "All experiment checks passed.");
    check_bool "full disk: metrics report" true (contains err "histogram spectral.iterations");
    check_bool "full disk: file named last" true
      (String.starts_with ~prefix:"experiments: trace /dev/full" (last_line err))
  end

let test_cli_trace_failures () =
  let code, out, err = run_split binary ("prune -t torus:10x10 --seed 3 --trace " ^ missing_dir_trace) in
  check_int "missing dir: usage error" 124 code;
  check_bool "missing dir: nothing ran" true (out = "");
  check_bool "missing dir: names the path" true (contains err missing_dir_trace);
  if Sys.file_exists "/dev/full" then begin
    let code, out, err = run_split binary "prune -t torus:10x10 --seed 3 --metrics --trace /dev/full" in
    check_int "full disk: exit" 1 code;
    check_bool "full disk: result printed" true (contains out "Prune: kept");
    check_bool "full disk: metrics report" true (contains err "histogram spectral.iterations");
    check_bool "full disk: file named last" true
      (String.starts_with ~prefix:"faultnet: trace /dev/full" (last_line err))
  end

let test_faultnetd_trace_failures () =
  let code, out, err =
    run_split daemon ("--topology torus:8x8 --trace " ^ missing_dir_trace ^ " < /dev/null")
  in
  check_int "missing dir: exit" 2 code;
  check_bool "missing dir: no session" true (out = "");
  check_bool "missing dir: one line naming the path" true
    (one_line err && contains err missing_dir_trace);
  if Sys.file_exists "/dev/full" then begin
    let inp = Filename.temp_file "faultnetd_trace" ".in" in
    Fun.protect
      ~finally:(fun () -> Sys.remove inp)
      (fun () ->
        Out_channel.with_open_bin inp (fun oc -> output_string oc "apply f1 f2\nquit\n");
        let code, out, err =
          run_split daemon
            (Printf.sprintf "--topology torus:8x8 --metrics --trace /dev/full < %s" inp)
        in
        check_int "full disk: exit" 1 code;
        check_bool "full disk: session answered" true (contains out "ok applied=2");
        check_bool "full disk: metrics report" true (contains err "online.events");
        check_bool "full disk: file named last" true
          (String.starts_with ~prefix:"faultnetd: trace /dev/full" (last_line err)))
  end

(* --domains outside 1..127 is refused when the flag is parsed: the
   runtime holds at most 128 domains, and 0 or a negative count used
   to run quietly on one.  Each value is refused before any work, so
   no domain is ever spawned. *)
let test_domains_range_refused () =
  List.iter
    (fun d ->
      let code, out, err = run_split (bin_path "experiments.exe") ("--quick --domains " ^ d ^ " E2") in
      check_int ("experiments " ^ d ^ ": exit") 2 code;
      check_bool ("experiments " ^ d ^ ": nothing ran") true (out = "");
      check_bool ("experiments " ^ d ^ ": named") true (one_line err && contains err "--domains");
      let code, out, err = run_split daemon ("--topology torus:8x8 --domains " ^ d ^ " < /dev/null") in
      check_int ("faultnetd " ^ d ^ ": exit") 2 code;
      check_bool ("faultnetd " ^ d ^ ": no session") true (out = "");
      check_bool ("faultnetd " ^ d ^ ": named") true (one_line err && contains err "--domains"))
    [ "0"; "-1"; "128" ]

let test_figures_bad_seed () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fn_figures_bad_seed" in
  let code, out, err = run_split (bin_path "figures.exe") ("--seed x --outdir " ^ dir) in
  check_int "exit" 2 code;
  check_bool "nothing written" true (out = "" && not (Sys.file_exists dir));
  check_bool "usage line" true (one_line err && String.starts_with ~prefix:"usage: figures" err)

let () =
  if not (Sys.file_exists binary) then begin
    print_endline "faultnet_cli.exe not found next to the test; skipping CLI suite";
    exit 0
  end;
  Alcotest.run "cli"
    [
      ( "end-to-end",
        [
          case "gen mesh" test_gen_mesh;
          case "exact expansion" test_expansion_exact;
          case "connectivity" test_connectivity;
          case "file roundtrip" test_file_roundtrip;
          case "unknown experiment" test_unknown_experiment_fails;
          case "determinism" test_determinism_across_runs;
          case "faultnetd rejects bad flag values" test_faultnetd_rejects_bad_values;
          case "faultnetd error exit closes trace and metrics" test_faultnetd_error_exit_finishes;
          case "faultnetd resumes across domain counts" test_faultnetd_resume_across_domains;
          case "gen rejects bad specs" test_gen_rejects_bad_specs;
          case "lower bound only when exact" test_expansion_lower_labels;
          case "bad --epsilon and --fault-p are usage errors" test_bad_numbers_are_usage_errors;
          case "range ends accepted" test_range_ends_accepted;
          case "attack budget range" test_attack_budget_range;
          case "report needs two survivors" test_report_needs_two_survivors;
          case "faultnetd --deadline" test_faultnetd_deadline;
          case "experiments refuses removed flags" test_experiments_refuses_removed_flags;
          case "experiments --trace failures" test_experiments_trace_failures;
          case "faultnet --trace failures" test_cli_trace_failures;
          case "faultnetd --trace failures" test_faultnetd_trace_failures;
          case "--domains outside 1..127 refused" test_domains_range_refused;
          case "figures --seed must be an integer" test_figures_bad_seed;
        ] );
      ( "lint",
        [
          case "--only filters rules" test_lint_only;
          case "--explain describes a rule" test_lint_explain;
          case "unknown rule exits 2" test_lint_unknown_rule;
        ] );
    ]
