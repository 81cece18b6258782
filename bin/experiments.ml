(* Run the E1-E14 validation experiments and print their tables.

   Usage: experiments [--quick] [--seed N] [--domains N] [--json]
                      [--trace FILE] [--metrics] [--resume FILE] [ids...]
   With no ids, runs everything in order.  --domains N (1..127) sizes
   the worker pools and changes no table.  --trace streams JSONL spans
   (per-experiment, per-Prune-round, per-sweep...) to FILE; a FILE
   that cannot be opened is refused before any work, and one that
   fails later (a full disk) is named after the summary line with
   exit 1.  --metrics prints the metrics registry to stderr at exit;
   --json replaces the rendered tables with one JSON object per
   experiment on stdout.

   --resume journals completed experiments to FILE (an
   Fn_resilience.Journal) so an interrupted sweep restarts where it
   stopped — with identical output, since outcomes replay from the
   journal byte-for-byte.  An experiment that raises is reported on
   stderr and counted as failed, and the sweep goes on. *)

let usage () =
  prerr_endline
    "usage: experiments [--quick] [--seed N] [--domains N] [--json] [--trace FILE] \
     [--metrics] [--resume FILE] [E1 E2 ...]";
  exit 2

(* A sweep cannot go on after these: the process is out of memory or
   stack, so they propagate instead of counting as one failed
   experiment. *)
let fatal = function Out_of_memory | Stack_overflow -> true | _ -> false

let () =
  let quick = ref false in
  let seed = ref 1234 in
  let domains = ref None in
  let json = ref false in
  let trace = ref None in
  let metrics = ref false in
  let resume = ref None in
  let ids = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s ->
        seed := s;
        parse rest
      | None -> usage ())
    | "--domains" :: v :: rest -> (
      match int_of_string_opt v with
      | Some d when d >= 1 && d <= Fn_parallel.Par.max_domains ->
        domains := Some d;
        parse rest
      | Some _ ->
        Printf.eprintf "experiments: --domains must be in 1..%d, got %s\n"
          Fn_parallel.Par.max_domains v;
        exit 2
      | None -> usage ())
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--trace" :: path :: rest ->
      trace := Some path;
      parse rest
    | "--metrics" :: rest ->
      metrics := true;
      parse rest
    | "--resume" :: path :: rest ->
      resume := Some path;
      parse rest
    | "--help" :: _ -> usage ()
    | id :: rest ->
      ids := id :: !ids;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sink =
    match Fn_obs.Sink.of_flags ~trace:!trace ~metrics:!metrics with
    | Ok sink -> sink
    | Error m ->
      prerr_endline ("experiments: " ^ m);
      exit 2
  in
  let journal =
    match !resume with
    | None -> None
    | Some path -> (
      (* seed and quick bind the journal to a run: they decide what
         each experiment computes.  "online" is always false now; it
         stays in the binding so that a journal an older build wrote
         with --online is refused instead of replayed. *)
      let meta =
        [
          ("seed", Fn_obs.Jsonx.Int !seed);
          ("quick", Fn_obs.Jsonx.Bool !quick);
          ("online", Fn_obs.Jsonx.Bool false);
        ]
      in
      match Fn_resilience.Journal.open_ ~path ~meta with
      | Ok j ->
        if Fn_resilience.Journal.recovered j > 0 then
          Printf.eprintf "resuming from %s: %d journaled record(s)%s\n%!" path
            (Fn_resilience.Journal.recovered j)
            (if Fn_resilience.Journal.torn j > 0 then
               Printf.sprintf " (%d torn line(s) skipped)" (Fn_resilience.Journal.torn j)
             else "");
        Some j
      | Error m ->
        Printf.eprintf "cannot resume from %s: %s\n" path m;
        exit 2)
  in
  let cfg =
    Fn_experiments.Workload.config ~quick:!quick ~seed:!seed ?domains:!domains ~obs:sink
      ?journal ()
  in
  let entries =
    match List.rev !ids with
    | [] -> Fn_experiments.Registry.all
    | names ->
      List.map
        (fun name ->
          match Fn_experiments.Registry.find name with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %S\n" name;
            exit 2)
        names
  in
  let failures = ref 0 in
  List.iter
    (fun (e : Fn_experiments.Registry.entry) ->
      let started = Fn_obs.Clock.now_ns () in
      let sp =
        if Fn_obs.Sink.enabled sink then
          Fn_obs.Span.enter sink "experiment"
            ~fields:
              [
                ("id", Fn_obs.Sink.Str e.Fn_experiments.Registry.id);
                ("quick", Fn_obs.Sink.Bool !quick);
                ("seed", Fn_obs.Sink.Int !seed);
              ]
        else Fn_obs.Span.null
      in
      match Fn_experiments.Registry.run_entry e cfg with
      | outcome ->
        let passed = Fn_experiments.Outcome.all_passed outcome in
        if Fn_obs.Sink.enabled sink then
          Fn_obs.Span.exit sp ~fields:[ ("passed", Fn_obs.Sink.Bool passed) ];
        let elapsed = Fn_obs.Clock.elapsed_s ~since_ns:started in
        if !json then print_endline (Fn_experiments.Outcome.to_json outcome)
        else begin
          print_string (Fn_experiments.Outcome.render outcome);
          Printf.printf "  (%.1fs)\n\n" elapsed
        end;
        if not passed then incr failures
      | exception exn when not (fatal exn) ->
        (* report and move on, so one broken experiment cannot take
           down the rest of the sweep (the journal keeps the outcomes
           that finished, for a later --resume) *)
        if Fn_obs.Sink.enabled sink then
          Fn_obs.Span.exit sp ~fields:[ ("passed", Fn_obs.Sink.Bool false) ];
        Printf.eprintf "%s: crashed: %s\n%!" e.Fn_experiments.Registry.id
          (Printexc.to_string exn);
        incr failures)
    entries;
  Option.iter Fn_resilience.Journal.close journal;
  let closed = Fn_obs.Sink.close sink in
  if !failures > 0 then begin
    if not !json then Printf.printf "%d experiment(s) had failing checks\n" !failures
  end
  else if not !json then print_endline "All experiment checks passed.";
  if !metrics then prerr_string (Fn_obs.Metrics.report_text ());
  match closed with
  | Error m ->
    prerr_endline ("experiments: " ^ m);
    exit 1
  | Ok () -> if !failures > 0 then exit 1
