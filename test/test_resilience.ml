(* Tests for Fn_resilience: the JSONL checkpoint journal (records,
   meta binding, torn tails, compaction and a kill mid-compaction),
   atomic snapshot files, outcome replay through
   [Fn_experiments.Registry.run_entry], and kill-and-resume end-to-end
   runs of the experiments binary. *)

open Fn_resilience
open Testutil
module J = Fn_obs.Jsonx

let check_string = Alcotest.(check string)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let with_temp_journal f =
  let path = Filename.temp_file "fn_resilience" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let journal_exn = function
  | Ok j -> j
  | Error e -> Alcotest.fail ("journal open failed: " ^ e)

let meta7 = [ ("seed", J.Int 7); ("quick", J.Bool true) ]

let test_journal_roundtrip () =
  (* a trial value is any Jsonx tree; this one is shaped like a
     faultnetd batch with a hex-float field *)
  let batch =
    J.List [ J.Str "f3"; J.Str "r17"; J.Obj [ ("alpha", J.Str "0x1.999999999999ap-4") ] ]
  in
  with_temp_journal (fun path ->
      let j = journal_exn (Journal.open_ ~path ~meta:meta7) in
      check_int "fresh journal recovers nothing" 0 (Journal.recovered j);
      check_int "fresh journal has no torn lines" 0 (Journal.torn j);
      Journal.record_trial j ~scope:"T" ~index:0 (J.Int 11);
      Journal.record_trial j ~scope:"T" ~index:3 batch;
      Journal.record_outcome j ~id:"E5" (J.Obj [ ("ok", J.Bool true) ]);
      check_bool "find recorded trial" true
        (Journal.find_trial j ~scope:"T" ~index:0 = Some (J.Int 11));
      check_bool "missing trial is None" true
        (Journal.find_trial j ~scope:"T" ~index:1 = None);
      Journal.close j;
      let j2 = journal_exn (Journal.open_ ~path ~meta:meta7) in
      check_int "all records recovered" 3 (Journal.recovered j2);
      check_int "no torn lines" 0 (Journal.torn j2);
      check_bool "trial survives reopen" true
        (Journal.find_trial j2 ~scope:"T" ~index:0 = Some (J.Int 11));
      check_bool "structured trial survives reopen" true
        (Journal.find_trial j2 ~scope:"T" ~index:3 = Some batch);
      check_bool "outcome survives reopen" true
        (Journal.find_outcome j2 ~id:"E5" = Some (J.Obj [ ("ok", J.Bool true) ]));
      Journal.close j2)

let test_journal_meta_mismatch () =
  with_temp_journal (fun path ->
      let j = journal_exn (Journal.open_ ~path ~meta:meta7) in
      Journal.record_outcome j ~id:"E1" J.Null;
      Journal.close j;
      (match Journal.open_ ~path ~meta:[ ("seed", J.Int 8) ] with
      | Ok _ -> Alcotest.fail "expected meta mismatch"
      | Error e -> check_bool "names the offending key" true (contains ~needle:"seed" e));
      (* extra keys the journal never recorded also refuse to bind *)
      match Journal.open_ ~path ~meta:[ ("mode", J.Str "full") ] with
      | Ok _ -> Alcotest.fail "expected mismatch on absent key"
      | Error e -> check_bool "mentions mismatch" true (contains ~needle:"mismatch" e))

let test_journal_torn_tail () =
  with_temp_journal (fun path ->
      let j = journal_exn (Journal.open_ ~path ~meta:meta7) in
      Journal.record_trial j ~scope:"T" ~index:0 (J.Int 1);
      Journal.record_trial j ~scope:"T" ~index:1 (J.Int 2);
      Journal.close j;
      (* simulate a kill mid-write: a truncated final line *)
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_string oc {|{"kind":"trial","scope":"T","ind|};
      close_out oc;
      let j2 = journal_exn (Journal.open_ ~path ~meta:meta7) in
      check_int "torn tail skipped" 1 (Journal.torn j2);
      check_int "intact records still load" 2 (Journal.recovered j2);
      (* appending continues cleanly past the torn tail *)
      Journal.record_trial j2 ~scope:"T" ~index:2 (J.Int 3);
      Journal.close j2;
      let j3 = journal_exn (Journal.open_ ~path ~meta:meta7) in
      check_bool "post-tear record readable" true
        (Journal.find_trial j3 ~scope:"T" ~index:2 = Some (J.Int 3));
      Journal.close j3)

(* A re-run appends a second outcome row for the same id (an
   undecodable row is replaced this way); the later row governs, in
   memory and after reopen. *)
let test_journal_later_outcome_governs () =
  with_temp_journal (fun path ->
      let j = journal_exn (Journal.open_ ~path ~meta:meta7) in
      Journal.record_outcome j ~id:"E5" (J.Str "first");
      Journal.record_outcome j ~id:"E5" (J.Str "second");
      check_bool "later row in memory" true
        (Journal.find_outcome j ~id:"E5" = Some (J.Str "second"));
      Journal.close j;
      let j2 = journal_exn (Journal.open_ ~path ~meta:meta7) in
      check_int "both rows load" 2 (Journal.recovered j2);
      check_bool "later row after reopen" true
        (Journal.find_outcome j2 ~id:"E5" = Some (J.Str "second"));
      Journal.close j2)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_meta_mismatch_lists_every_key () =
  let stored = J.Obj [ ("kind", J.Str "meta"); ("seed", J.Int 7); ("quick", J.Bool true) ] in
  let requested =
    [ ("seed", J.Int 8); ("quick", J.Bool false); ("mode", J.Str "full") ]
  in
  match Journal.check_meta ~requested stored with
  | Ok () -> Alcotest.fail "expected mismatch"
  | Error e ->
    (* every divergent key appears, with the journal's value AND the
       run's value — the operator sees the whole diff at once *)
    List.iter
      (fun needle ->
        check_bool (Printf.sprintf "refusal mentions %S" needle) true
          (contains ~needle e))
      [ "seed"; "7"; "8"; "quick"; "true"; "false"; "mode"; "nothing"; "\"full\"" ];
    (* agreement on every requested key passes even with extra stored fields *)
    check_bool "matching subset binds" true
      (Journal.check_meta ~requested:[ ("seed", J.Int 7) ] stored = Ok ())

let test_journal_compact () =
  with_temp_journal (fun path ->
      let j = journal_exn (Journal.open_ ~path ~meta:meta7) in
      for i = 0 to 9 do
        Journal.record_trial j ~scope:"T" ~index:i (J.Int (100 + i))
      done;
      Journal.record_trial j ~scope:"U" ~index:0 (J.Int 55);
      Journal.record_outcome j ~id:"E5" (J.Bool true);
      let snap = J.Obj [ ("sum", J.Int 836) ] in
      (match Journal.compact j ~scope:"T" ~upto:8 ~snapshot:snap with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("compact failed: " ^ e));
      check_bool "snapshot visible" true (Journal.find_snapshot j ~scope:"T" = Some (8, snap));
      check_bool "prefix trial dropped" true (Journal.find_trial j ~scope:"T" ~index:3 = None);
      check_bool "suffix trial kept" true
        (Journal.find_trial j ~scope:"T" ~index:8 = Some (J.Int 108));
      check_bool "other scope untouched" true
        (Journal.find_trial j ~scope:"U" ~index:0 = Some (J.Int 55));
      (* appending continues on the compacted file *)
      Journal.record_trial j ~scope:"T" ~index:10 (J.Int 110);
      Journal.close j;
      let j2 = journal_exn (Journal.open_ ~path ~meta:meta7) in
      check_int "torn-free after rewrite" 0 (Journal.torn j2);
      check_bool "snapshot survives reopen" true
        (Journal.find_snapshot j2 ~scope:"T" = Some (8, snap));
      check_bool "post-compaction append survives" true
        (Journal.find_trial j2 ~scope:"T" ~index:10 = Some (J.Int 110));
      check_bool "outcome survives" true (Journal.find_outcome j2 ~id:"E5" = Some (J.Bool true));
      (* recovered = snapshot + 3 retained T trials + U trial + outcome *)
      check_int "recovery is O(snapshot + suffix)" 6 (Journal.recovered j2);
      Journal.close j2)

exception Simulated_kill

let test_compact_killed_before_rename () =
  with_temp_journal (fun path ->
      let j = journal_exn (Journal.open_ ~path ~meta:meta7) in
      for i = 0 to 5 do
        Journal.record_trial j ~scope:"T" ~index:i (J.Int i)
      done;
      Journal.close j;
      let before = read_file path in
      let j = journal_exn (Journal.open_ ~path ~meta:meta7) in
      (* SIGKILL between the staged write and the rename, simulated by
         raising from the fault-injection hook at exactly that point *)
      (match
         Journal.compact j
           ~on_tmp_written:(fun () -> raise Simulated_kill)
           ~scope:"T" ~upto:4 ~snapshot:(J.Str "partial")
       with
      | exception Simulated_kill -> ()
      | Ok () -> Alcotest.fail "compact survived the kill"
      | Error e -> Alcotest.fail ("compact errored instead of dying: " ^ e));
      Journal.close j;
      check_bool "staging file left behind" true
        (Sys.file_exists (Journal.compact_tmp_path path));
      check_string "old journal still governs" before (read_file path);
      (* the next open discards the stale staging file and recovers
         everything from the (complete) old journal *)
      let j2 = journal_exn (Journal.open_ ~path ~meta:meta7) in
      check_bool "stale tmp discarded" false (Sys.file_exists (Journal.compact_tmp_path path));
      check_bool "no snapshot installed" true (Journal.find_snapshot j2 ~scope:"T" = None);
      check_int "all trials recovered" 6 (Journal.recovered j2);
      Journal.close j2)

(* ------------------------------------------------------------------ *)
(* Snapshot files                                                      *)
(* ------------------------------------------------------------------ *)

let test_snapshot_roundtrip () =
  with_temp_journal (fun path ->
      let payload = J.Obj [ ("digest", J.Str "abc"); ("faulty", J.List [ J.Int 3 ]) ] in
      (match Snapshot.write ~path ~meta:meta7 payload with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("snapshot write failed: " ^ e));
      check_bool "no staging residue" false (Sys.file_exists (Snapshot.tmp_path path));
      (match Snapshot.read ~path ~meta:meta7 with
      | Ok v -> check_bool "payload round-trips" true (v = payload)
      | Error e -> Alcotest.fail ("snapshot read failed: " ^ e));
      (* a subset binding reads fine; a divergent one is refused with both sides *)
      (match Snapshot.read ~path ~meta:[ ("seed", J.Int 7) ] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("subset meta refused: " ^ e));
      (match Snapshot.read ~path ~meta:[ ("seed", J.Int 9) ] with
      | Ok _ -> Alcotest.fail "divergent meta accepted"
      | Error e ->
        check_bool "mismatch lists both sides" true
          (contains ~needle:"7" e && contains ~needle:"9" e));
      (* overwrite is atomic: the new payload fully replaces the old *)
      (match Snapshot.write ~path ~meta:meta7 (J.Int 42) with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("snapshot rewrite failed: " ^ e));
      match Snapshot.read ~path ~meta:meta7 with
      | Ok v -> check_bool "rewrite replaces payload" true (v = J.Int 42)
      | Error e -> Alcotest.fail ("reread failed: " ^ e))

let test_snapshot_rejects_garbage () =
  with_temp_journal (fun path ->
      let oc = open_out_bin path in
      output_string oc "not json at all\n";
      close_out oc;
      match Snapshot.read ~path ~meta:[] with
      | Ok _ -> Alcotest.fail "garbage accepted"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Outcome replay: Registry.run_entry under a journal                  *)
(* ------------------------------------------------------------------ *)

module R = Fn_experiments.Registry
module W = Fn_experiments.Workload
module O = Fn_experiments.Outcome

let probe_outcome =
  let table = Fn_stats.Table.create [ "n"; "kept" ] in
  Fn_stats.Table.add_row table [ "64"; "60" ];
  {
    O.id = "EX";
    title = "replay probe";
    table;
    checks = [ ("kept most", true) ];
    notes = [ "a note" ];
  }

(* An entry that counts how often its experiment really runs. *)
let counting_entry ?(run = fun _ -> probe_outcome) () =
  let calls = ref 0 in
  let entry =
    {
      R.id = "EX";
      title = "replay probe";
      run =
        (fun cfg ->
          incr calls;
          run cfg);
    }
  in
  (entry, calls)

let same_outcome name a b = check_string name (O.to_json a) (O.to_json b)

let test_run_entry_without_journal () =
  let entry, calls = counting_entry () in
  let cfg = W.config ~quick:true ~seed:7 () in
  same_outcome "the entry's outcome" probe_outcome (R.run_entry entry cfg);
  ignore (R.run_entry entry cfg);
  check_int "runs every time: nothing is remembered" 2 !calls

let test_run_entry_journals_finished () =
  with_temp_journal (fun path ->
      let j = journal_exn (Journal.open_ ~path ~meta:meta7) in
      let entry, calls = counting_entry () in
      let cfg = W.config ~quick:true ~seed:7 ~journal:j () in
      ignore (R.run_entry entry cfg);
      check_bool "outcome journaled on completion" true
        (Journal.find_outcome j ~id:"EX" = Some (O.to_jsonx probe_outcome));
      same_outcome "second call replays" probe_outcome (R.run_entry entry cfg);
      check_int "ran once" 1 !calls;
      Journal.close j)

let test_run_entry_replays_after_reopen () =
  with_temp_journal (fun path ->
      let j = journal_exn (Journal.open_ ~path ~meta:meta7) in
      let entry, _ = counting_entry () in
      ignore (R.run_entry entry (W.config ~journal:j ()));
      Journal.close j;
      let j2 = journal_exn (Journal.open_ ~path ~meta:meta7) in
      let entry, calls = counting_entry ~run:(fun _ -> Alcotest.fail "replay ran the entry") () in
      same_outcome "replayed outcome" probe_outcome (R.run_entry entry (W.config ~journal:j2 ()));
      check_int "not run" 0 !calls;
      Journal.close j2)

let replay_instants events =
  List.filter_map
    (fun (e : Fn_obs.Sink.event) ->
      if e.Fn_obs.Sink.name = "resilience.outcome_replayed" then Some e.Fn_obs.Sink.fields
      else None)
    events

let test_replay_announced_on_sink () =
  with_temp_journal (fun path ->
      let j = journal_exn (Journal.open_ ~path ~meta:meta7) in
      let sink, events = Fn_obs.Sink.memory () in
      let entry, _ = counting_entry () in
      let cfg = W.config ~obs:sink ~journal:j () in
      ignore (R.run_entry entry cfg);
      check_int "a real run announces no replay" 0 (List.length (replay_instants (events ())));
      ignore (R.run_entry entry cfg);
      check_bool "the replay names its experiment" true
        (replay_instants (events ()) = [ [ ("id", Fn_obs.Sink.Str "EX") ] ]);
      Journal.close j)

exception Experiment_broke

(* The sweep in bin/experiments.ml catches what an experiment raises;
   run_entry itself lets it through and journals nothing, so a later
   --resume runs that experiment again. *)
let test_raising_entry_journals_nothing () =
  with_temp_journal (fun path ->
      let j = journal_exn (Journal.open_ ~path ~meta:meta7) in
      let entry, calls = counting_entry ~run:(fun _ -> raise Experiment_broke) () in
      let cfg = W.config ~journal:j () in
      Alcotest.check_raises "the exception propagates" Experiment_broke (fun () ->
          ignore (R.run_entry entry cfg));
      check_int "raised once, no retry" 1 !calls;
      check_bool "nothing journaled" true (Journal.find_outcome j ~id:"EX" = None);
      Journal.close j;
      let j2 = journal_exn (Journal.open_ ~path ~meta:meta7) in
      let entry, calls = counting_entry () in
      same_outcome "resume runs it" probe_outcome (R.run_entry entry (W.config ~journal:j2 ()));
      check_int "ran on resume" 1 !calls;
      Journal.close j2)

let test_undecodable_outcome_runs_again () =
  with_temp_journal (fun path ->
      let j = journal_exn (Journal.open_ ~path ~meta:meta7) in
      Journal.record_outcome j ~id:"EX" (J.Obj [ ("bogus", J.Int 1) ]);
      let entry, calls = counting_entry () in
      same_outcome "fresh outcome" probe_outcome (R.run_entry entry (W.config ~journal:j ()));
      check_int "ran" 1 !calls;
      Journal.close j;
      let j2 = journal_exn (Journal.open_ ~path ~meta:meta7) in
      check_bool "the later row governs" true
        (Journal.find_outcome j2 ~id:"EX" = Some (O.to_jsonx probe_outcome));
      Journal.close j2)

(* ------------------------------------------------------------------ *)
(* End-to-end: kill-and-resume through the experiments binary          *)
(* ------------------------------------------------------------------ *)

let binary =
  let candidates =
    [
      Filename.concat (Filename.concat ".." "bin") "experiments.exe";
      List.fold_left Filename.concat "_build" [ "default"; "bin"; "experiments.exe" ];
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let test_cli_resume_byte_identical () =
  if not (Sys.file_exists binary) then
    Alcotest.skip ()
  else begin
    let tmp suffix = Filename.temp_file "fn_resume" suffix in
    let base = tmp ".json" and p1 = tmp ".json" and p2 = tmp ".json" in
    let errf = tmp ".err" in
    let journal = tmp ".jsonl" in
    Sys.remove journal;
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun f -> if Sys.file_exists f then Sys.remove f)
          [ base; p1; p2; errf; journal ])
      (fun () ->
        let run args out =
          let cmd = Printf.sprintf "%s %s > %s 2> %s" binary args out errf in
          check_int ("exit 0: " ^ args) 0 (Sys.command cmd)
        in
        (* the uninterrupted reference run *)
        run "--quick --json --seed 7 E1 E3" base;
        (* phase 1: the "killed" sweep got through E1 only *)
        run (Printf.sprintf "--quick --json --seed 7 --resume %s E1" journal) p1;
        (* phase 2: resume and finish the sweep *)
        run (Printf.sprintf "--quick --json --seed 7 --resume %s E1 E3" journal) p2;
        check_bool "resume announced on stderr" true
          (contains ~needle:"resuming" (read_file errf));
        check_bool "resumed sweep byte-identical to uninterrupted run" true
          (read_file base = read_file p2);
        (* a different seed must refuse the journal *)
        let cmd =
          Printf.sprintf "%s --quick --json --seed 8 --resume %s E1 > %s 2> %s" binary
            journal p1 errf
        in
        check_bool "seed mismatch rejected" true (Sys.command cmd <> 0);
        check_bool "mismatch explained" true
          (contains ~needle:"mismatch" (read_file errf)))
  end

(* fixtures/resume/quick_seed7_e1.jsonl is the journal an earlier
   build wrote for [--quick --json --seed 7 --resume FILE E1].
   Resuming a copy into [E1 E3] must replay E1 from it, run E3, and
   print what an uninterrupted [E1 E3] run prints: the journal format
   stays readable across builds. *)
let test_cli_resumes_recorded_journal () =
  if not (Sys.file_exists binary) then Alcotest.skip ()
  else begin
    let tmp suffix = Filename.temp_file "fn_resume" suffix in
    let base = tmp ".json" and resumed = tmp ".json" and errf = tmp ".err" in
    let journal = tmp ".jsonl" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun f -> if Sys.file_exists f then Sys.remove f)
          [ base; resumed; errf; journal ])
      (fun () ->
        let recorded =
          read_file (List.fold_left Filename.concat "fixtures" [ "resume"; "quick_seed7_e1.jsonl" ])
        in
        Out_channel.with_open_bin journal (fun oc -> output_string oc recorded);
        let run args out =
          let cmd = Printf.sprintf "%s %s > %s 2> %s" binary args out errf in
          check_int ("exit 0: " ^ args) 0 (Sys.command cmd)
        in
        run (Printf.sprintf "--quick --json --seed 7 --resume %s E1 E3" journal) resumed;
        check_bool "one journaled record replayed" true
          (contains ~needle:"1 journaled record(s)" (read_file errf));
        run "--quick --json --seed 7 E1 E3" base;
        check_bool "resumed sweep byte-identical to uninterrupted run" true
          (read_file base = read_file resumed);
        check_bool "E3 appended after the recorded lines" true
          (String.starts_with ~prefix:recorded (read_file journal)
          && String.length (read_file journal) > String.length recorded))
  end

(* Journals an earlier build wrote with [--online] bind
   ["online": true].  That mode is gone, and its outcomes came from a
   different survivor cascade, so such a journal must be refused (exit
   2, naming the key), never replayed as if it were a default run. *)
let test_cli_refuses_online_journal () =
  if not (Sys.file_exists binary) then Alcotest.skip ()
  else begin
    let tmp suffix = Filename.temp_file "fn_resume" suffix in
    let out = tmp ".json" and errf = tmp ".err" and journal = tmp ".jsonl" in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ out; errf; journal ])
      (fun () ->
        let recorded =
          read_file (List.fold_left Filename.concat "fixtures" [ "resume"; "quick_seed7_e1.jsonl" ])
        in
        let needle = {|"online":false|} in
        let i =
          let n = String.length needle in
          let rec find i = if String.sub recorded i n = needle then i else find (i + 1) in
          find 0
        in
        let online =
          String.sub recorded 0 i ^ {|"online":true|}
          ^ String.sub recorded (i + String.length needle)
              (String.length recorded - i - String.length needle)
        in
        Out_channel.with_open_bin journal (fun oc -> output_string oc online);
        let code =
          Sys.command
            (Printf.sprintf "%s --quick --json --seed 7 --resume %s E1 > %s 2> %s" binary journal
               out errf)
        in
        check_int "refused" 2 code;
        check_bool "names online" true (contains ~needle:"online" (read_file errf));
        check_bool "nothing ran" true (read_file out = "");
        check_bool "journal untouched" true (read_file journal = online))
  end

let () =
  Alcotest.run "resilience"
    [
      ( "journal",
        [
          case "roundtrip" test_journal_roundtrip;
          case "meta mismatch" test_journal_meta_mismatch;
          case "meta mismatch lists every key" test_meta_mismatch_lists_every_key;
          case "torn tail" test_journal_torn_tail;
          case "later outcome row governs" test_journal_later_outcome_governs;
          case "compaction" test_journal_compact;
          case "kill during compaction" test_compact_killed_before_rename;
        ] );
      ( "snapshot",
        [
          case "atomic roundtrip" test_snapshot_roundtrip;
          case "rejects garbage" test_snapshot_rejects_garbage;
        ] );
      ( "replay",
        [
          case "no journal runs the entry" test_run_entry_without_journal;
          case "finished outcome is journaled" test_run_entry_journals_finished;
          case "journaled outcome replays" test_run_entry_replays_after_reopen;
          case "replay announced on the sink" test_replay_announced_on_sink;
          case "raising entry journals nothing" test_raising_entry_journals_nothing;
          case "undecodable outcome runs again" test_undecodable_outcome_runs_again;
        ] );
      ( "end-to-end",
        [
          case "kill and resume" test_cli_resume_byte_identical;
          case "journal from an earlier build resumes" test_cli_resumes_recorded_journal;
          case "journal written with --online is refused" test_cli_refuses_online_journal;
        ] );
    ]
