(* fnbench — one benchmark run of one workload.

     fnbench --workload certify|serve|ingest --seed N --seconds S --trace 0|1
             --daemon PATH --work DIR
     fnbench --echo

   Prints the host drift probe, the run's notes, checks and counters,
   and, as the last line of stdout, one JSON object:
   {"correct", "attempted", "failed", "metrics"} with the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1).  Work
   counters of the first run of each (workload, seed, seconds, code) are
   kept under DIR/counters, where the code is a digest of this
   executable and the daemon's; a later run of the same code whose
   counters differ is flagged and marked incorrect.  A rebuilt program
   starts afresh.  perfbench/run.py builds this and passes --daemon and
   --work. *)

let e2e_units = [ ("setup_s", "s"); ("ops_per_s", "ops/s"); ("op_p50_us", "us"); ("rss_mb", "MB") ]

(* Every workload reports every per-layer metric; a layer the workload
   never calls reads 0. *)
let layer_units =
  [
    ("topology.generate_ms", "ms");
    ("estimate.pristine_ms", "ms");
    ("faults.inject_us", "us");
    ("prune.run_ms", "ms");
    ("prune.rounds", "count");
    ("prune.finder_calls", "count");
    ("prune.finder_ms", "ms");
    ("prune2.run_ms", "ms");
    ("prune2.rounds", "count");
    ("prune2.finder_calls", "count");
    ("prune2.finder_ms", "ms");
    ("verify_us", "us");
    ("estimate.survivor_ms", "ms");
    ("estimate.alloc_words", "words");
    ("spectral.solve_ms", "ms");
    ("spectral.iterations", "count");
    ("protocol.parse_ns", "ns");
    ("obs.clock_read_ns", "ns");
    ("engine.query_ns", "ns");
    ("server.handle_us", "us");
    ("pipe_us", "us");
    ("engine.apply_us", "us");
    ("engine.surveys_per_event", "count");
    ("engine.alloc_words_per_event", "words");
    ("engine.cascade_us", "us");
    ("journal.append_us", "us");
    ("journal.bytes_per_batch", "bytes");
    ("engine.encode_state_ms", "ms");
    ("journal.compact_ms", "ms");
    ("engine.create_s", "s");
    ("server.recover_ms", "ms");
    ("alloc_words_per_op", "words");
    ("trace.overhead_s", "s");
  ]

let usage () =
  prerr_endline
    "usage: fnbench --workload certify|serve|ingest --seed N --seconds S --trace 0|1 \
     --daemon PATH --work DIR";
  exit 2

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

(* Compare this run's counters with the first run of the same key;
   the first run records them.  Returns the keys that differ. *)
let check_counters ~file counters =
  if not (Sys.file_exists file) then begin
    let oc = open_out file in
    List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) counters;
    close_out oc;
    []
  end
  else begin
    let first = ref [] in
    let ic = open_in file in
    (try
       while true do
         let line = input_line ic in
         match String.index_opt line ' ' with
         | Some i ->
           first := (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)) :: !first
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k !first with Some v0 when v0 <> v -> Some k | _ -> None)
      counters
  end

(* fnbench --echo: the trivial line server the daemon workloads' reference
   kernel talks to (Daemon.echo_reference).  Answers every line with
   "ok true" until "quit" or end of input. *)
let echo () =
  let rec loop () =
    match In_channel.input_line stdin with
    | None | Some "quit" -> ()
    | Some _ ->
      print_string "ok true\n";
      flush stdout;
      loop ()
  in
  loop ();
  exit 0

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--echo" then echo ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let daemon = ref "" and work = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--daemon" :: v :: rest -> daemon := v; parse rest
    | "--work" :: v :: rest -> work := v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let daemon_needed = List.mem !workload [ "serve"; "ingest" ] in
  if
    !work = "" || !seconds < 1 || (!trace <> 0 && !trace <> 1)
    || not (!workload = "certify" || (daemon_needed && !daemon <> ""))
  then usage ();
  let traced = !trace = 1 in
  let tmp = Filename.concat !work (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p tmp;
  mkdir_p (Filename.concat !work "counters");
  let probe_start = Meter.probe () in
  let r =
    Fun.protect
      ~finally:(fun () -> rm_rf tmp)
      (fun () ->
        match !workload with
        | "certify" -> Certify.run ~seed:!seed ~seconds:!seconds ~trace:traced
        | "serve" -> Daemon.serve ~exe:!daemon ~dir:tmp ~seed:!seed ~seconds:!seconds ~trace:traced
        | _ -> Daemon.ingest ~exe:!daemon ~dir:tmp ~seed:!seed ~seconds:!seconds ~trace:traced)
  in
  let (i0, f0), (i1, f1) = (probe_start, Meter.probe ()) in
  Printf.printf "probe int_loop_ms=%.3f fp_alloc_ms=%.3f\n" ((i0 +. i1) /. 2.0) ((f0 +. f1) /. 2.0);
  List.iter (fun (k, v) -> Printf.printf "note %s=%.6g\n" k v) r.Report.notes;
  List.iter (fun (k, v) -> Printf.printf "counter %s=%s\n" k v) r.Report.counters;
  List.iter (fun (k, ok) -> Printf.printf "check %s: %s\n" k (if ok then "ok" else "FAILED")) r.Report.checks;
  let code =
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.map Digest.file
               (Sys.executable_name :: (if daemon_needed then [ !daemon ] else [])))))
  in
  let file =
    Filename.concat (Filename.concat !work "counters")
      (Printf.sprintf "%s-%d-%d-%s" !workload !seed !seconds (String.sub code 0 16))
  in
  let moved = check_counters ~file r.Report.counters in
  List.iter
    (fun k -> Printf.printf "FLAG counter %s differs from the first run of seed %d on this code\n" k !seed)
    moved;
  let metrics =
    if traced then List.map (fun (k, u) -> (k, u, Option.value ~default:0.0 (List.assoc_opt k r.Report.layers))) layer_units
    else List.map (fun (k, u) -> (k, u, List.assoc k r.Report.e2e)) e2e_units
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let correct =
    r.Report.failed = 0 && moved = [] && finite && List.for_all snd r.Report.checks
  in
  let body =
    String.concat ", "
      (List.map
         (fun (k, u, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k
             (Printf.sprintf "%.17g" (if Float.is_finite v then v else -1.0))
             u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    r.Report.attempted r.Report.failed body
