(* Tests for lib/obs: Jsonx round-trips, monotone clock, metric math,
   sink behavior (null no-op, memory, JSONL file round-trip) and span
   nesting. *)

open Testutil
open Fn_obs

(* ---- Jsonx ---- *)

let test_jsonx_to_string () =
  let j =
    Jsonx.Obj
      [
        ("s", Jsonx.Str "a\"b\\c\nd");
        ("i", Jsonx.Int (-3));
        ("f", Jsonx.Float 1.5);
        ("b", Jsonx.Bool true);
        ("n", Jsonx.Null);
        ("l", Jsonx.List [ Jsonx.Int 1; Jsonx.Int 2 ]);
      ]
  in
  Alcotest.(check string)
    "compact rendering"
    {|{"s":"a\"b\\c\nd","i":-3,"f":1.5,"b":true,"n":null,"l":[1,2]}|}
    (Jsonx.to_string j)

let test_jsonx_nonfinite () =
  check_bool "nan renders as null" true (Jsonx.to_string (Jsonx.Float Float.nan) = "null");
  check_bool "inf renders as null" true
    (Jsonx.to_string (Jsonx.Float Float.infinity) = "null")

let test_jsonx_roundtrip () =
  let j =
    Jsonx.Obj
      [
        ("name", Jsonx.Str "prune.round");
        ("vals", Jsonx.List [ Jsonx.Int 1; Jsonx.Float 0.25; Jsonx.Bool false; Jsonx.Null ]);
        ("nested", Jsonx.Obj [ ("k", Jsonx.Str "v") ]);
      ]
  in
  match Jsonx.parse (Jsonx.to_string j) with
  | None -> Alcotest.fail "round-trip parse failed"
  | Some j' -> check_bool "round-trip equal" true (j = j')

let test_jsonx_parse_junk () =
  check_bool "garbage" true (Jsonx.parse "{nope" = None);
  check_bool "trailing" true (Jsonx.parse "1 2" = None);
  check_bool "empty" true (Jsonx.parse "" = None);
  check_bool "whitespace int" true (Jsonx.parse "  42  " = Some (Jsonx.Int 42));
  check_bool "escapes" true (Jsonx.parse {|"a\tb"|} = Some (Jsonx.Str "a\tb"))

let test_jsonx_member () =
  let j = Jsonx.Obj [ ("a", Jsonx.Int 1); ("b", Jsonx.Str "x") ] in
  check_bool "present" true (Jsonx.member "b" j = Some (Jsonx.Str "x"));
  check_bool "absent" true (Jsonx.member "c" j = None);
  check_bool "non-object" true (Jsonx.member "a" (Jsonx.Int 3) = None)

(* ---- Clock ---- *)

let test_clock_monotone () =
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 100_000 do
    let t = Clock.now_ns () in
    if t < !prev then Alcotest.fail "clock went backwards";
    prev := t
  done;
  check_bool "elapsed non-negative" true (Clock.elapsed_s ~since_ns:!prev >= 0.0);
  check_float "ns_to_s" 1.5 (Clock.ns_to_s 1_500_000_000)

(* CLOCK_MONOTONIC counts a sleep in full, whatever the wall clock
   does meanwhile *)
let test_clock_counts_sleep () =
  let t0 = Clock.now_ns () in
  Unix.sleepf 0.002;
  let t1 = Clock.now_ns () in
  check_bool "a 2 ms sleep reads >= 2 ms" true (t1 - t0 >= 2_000_000)

let test_wall_stamp () =
  (* nanoseconds since the Unix epoch: after 2020-01-01 *)
  check_bool "wall stamp is an epoch time" true (Clock.wall_stamp_ns () > 1_577_836_800_000_000_000)

(* ---- Metrics ---- *)

let test_counter_math () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg "test.count" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 40;
  check_int "value" 42 (Metrics.counter_value c);
  (* get-or-create returns the same instrument *)
  check_int "shared by name" 42 (Metrics.counter_value (Metrics.counter ~registry:reg "test.count"))

let test_gauge_math () =
  let reg = Metrics.create () in
  let g = Metrics.gauge ~registry:reg "test.gauge" in
  check_float "initial" 0.0 (Metrics.gauge_value g);
  Metrics.set g 2.5;
  check_float "set" 2.5 (Metrics.gauge_value g)

let test_histogram_math () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg ~buckets:[| 1.0; 10.0 |] "test.hist" in
  check_int "empty count" 0 (Metrics.histogram_count h);
  check_float "empty mean" 0.0 (Metrics.histogram_mean h);
  List.iter (Metrics.observe h) [ 0.5; 1.0; 5.0; 100.0 ];
  check_int "count" 4 (Metrics.histogram_count h);
  check_float "sum" 106.5 (Metrics.histogram_sum h);
  check_float "mean" 26.625 (Metrics.histogram_mean h);
  check_float "min" 0.5 (Metrics.histogram_min h);
  check_float "max" 100.0 (Metrics.histogram_max h)

let test_metrics_kind_mismatch () =
  let reg = Metrics.create () in
  ignore (Metrics.counter ~registry:reg "test.kind");
  check_bool "gauge on counter name raises" true
    (match Metrics.gauge ~registry:reg "test.kind" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_metrics_reports () =
  let reg = Metrics.create () in
  Metrics.add (Metrics.counter ~registry:reg "b.count") 7;
  Metrics.set (Metrics.gauge ~registry:reg "a.gauge") 1.25;
  Metrics.observe (Metrics.histogram ~registry:reg "c.hist") 0.5;
  let text = Metrics.report_text ~registry:reg () in
  let has needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "counter line" true (has "counter" text && has "b.count" text && has "7" text);
  check_bool "gauge line" true (has "gauge" text && has "a.gauge" text);
  (* name-sorted: a.gauge before b.count before c.hist *)
  check_bool "sorted" true
    (String.index text 'a' < String.index text 'b')

(* ---- Sink ---- *)

let test_null_sink () =
  check_bool "disabled" false (Sink.enabled Sink.null);
  check_int "next_id" (-1) (Sink.next_id Sink.null);
  (* emits and close are no-ops *)
  let sp = Span.enter Sink.null "nothing" in
  Span.instant Sink.null "nothing";
  Span.exit sp;
  check_bool "close ok" true (Sink.close Sink.null = Ok ())

let test_discard_sink () =
  let s = Sink.discard () in
  check_bool "enabled" true (Sink.enabled s);
  let a = Sink.next_id s and b = Sink.next_id s in
  check_bool "ids increase" true (b = a + 1);
  Span.exit (Span.enter s "x");
  check_bool "close ok" true (Sink.close s = Ok ())

let test_memory_sink_and_nesting () =
  let sink, events = Sink.memory () in
  let outer = Span.enter sink "outer" ~fields:[ ("alpha", Sink.Float 0.5) ] in
  let inner = Span.enter sink "inner" in
  Span.instant sink "tick" ~fields:[ ("round", Sink.Int 1) ];
  Span.exit inner;
  Span.exit outer ~fields:[ ("kept", Sink.Int 9) ];
  match events () with
  | [ e_outer; e_inner; e_tick; x_inner; x_outer ] ->
    check_bool "outer enter" true (e_outer.Sink.kind = Sink.Enter && e_outer.Sink.name = "outer");
    check_int "outer has no parent" (-1) e_outer.Sink.parent;
    check_int "inner nests under outer" e_outer.Sink.id e_inner.Sink.parent;
    check_bool "instant kind" true (e_tick.Sink.kind = Sink.Instant);
    check_int "instant parented to inner" e_inner.Sink.id e_tick.Sink.parent;
    check_int "instant id" (-1) e_tick.Sink.id;
    check_bool "exit carries fields" true (x_inner.Sink.kind = Sink.Exit);
    check_bool "outer exit fields" true (x_outer.Sink.fields = [ ("kept", Sink.Int 9) ]);
    check_bool "timestamps monotone" true
      (e_outer.Sink.ts_ns <= e_inner.Sink.ts_ns && e_inner.Sink.ts_ns <= x_outer.Sink.ts_ns)
  | l -> Alcotest.failf "expected 5 events, got %d" (List.length l)

(* A full disk under the trace: no emit raises into the instrumented
   code, and close names the file.  /dev/full fails every write with
   ENOSPC; the events outgrow the channel buffer, so the failure shows
   during the run and again at close. *)
let test_jsonl_file_full_disk () =
  if Sys.file_exists "/dev/full" then begin
    let sink = Sink.jsonl_file "/dev/full" in
    for i = 1 to 5_000 do
      Span.instant sink "filler" ~fields:[ ("i", Sink.Int i); ("pad", Sink.Str (String.make 40 'x')) ]
    done;
    match Sink.close sink with
    | Ok () -> Alcotest.fail "a trace on /dev/full closed cleanly"
    | Error m ->
      check_bool "names the file" true
        (String.length m >= 15 && String.sub m 0 15 = "trace /dev/full")
  end

let test_of_flags () =
  check_bool "no flags: null" false
    (match Sink.of_flags ~trace:None ~metrics:false with Ok s -> Sink.enabled s | Error _ -> true);
  check_bool "metrics alone: enabled" true
    (match Sink.of_flags ~trace:None ~metrics:true with Ok s -> Sink.enabled s | Error _ -> false);
  match Sink.of_flags ~trace:(Some "/nonexistent-dir/t.jsonl") ~metrics:false with
  | Ok _ -> Alcotest.fail "a trace under a missing directory opened"
  | Error m ->
    check_bool "one line" false (String.contains m '\n');
    check_bool "names the path" true
      (let sub = "/nonexistent-dir/t.jsonl" in
       let n = String.length m and k = String.length sub in
       let rec at i = i + k <= n && (String.sub m i k = sub || at (i + 1)) in
       at 0)

let test_jsonl_file_roundtrip () =
  let path = Filename.temp_file "fn_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let sink = Sink.jsonl_file path in
      let sp = Span.enter sink "prune.run" ~fields:[ ("alpha", Sink.Float 0.5) ] in
      Span.instant sink "prune.round"
        ~fields:[ ("round", Sink.Int 1); ("ok", Sink.Bool true); ("tag", Sink.Str "x") ];
      Span.exit sp;
      check_bool "close ok" true (Sink.close sink = Ok ());
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check_int "three lines" 3 (List.length lines);
      let parsed = List.map Jsonx.parse lines in
      check_bool "every line parses" true (List.for_all (fun p -> p <> None) parsed);
      match List.nth parsed 1 with
      | Some line ->
        check_bool "kind field" true (Jsonx.member "kind" line = Some (Jsonx.Str "event"));
        check_bool "name field" true
          (Jsonx.member "name" line = Some (Jsonx.Str "prune.round"));
        (match Jsonx.member "fields" line with
        | Some fields ->
          check_bool "int field" true (Jsonx.member "round" fields = Some (Jsonx.Int 1));
          check_bool "bool field" true (Jsonx.member "ok" fields = Some (Jsonx.Bool true));
          check_bool "str field" true (Jsonx.member "tag" fields = Some (Jsonx.Str "x"))
        | None -> Alcotest.fail "no fields object")
      | None -> Alcotest.fail "instant line did not parse")

let test_emit_and_null_span () =
  let sink, events = Sink.memory () in
  let ev = { Sink.ts_ns = 5; kind = Sink.Instant; name = "hand.made"; id = -1; parent = -1; fields = [] } in
  Sink.emit sink ev;
  check_bool "delivered as built" true (events () = [ ev ]);
  (* the null span's exit emits nothing anywhere *)
  Span.exit Span.null;
  Sink.emit Sink.null ev;
  check_int "still one event" 1 (List.length (events ()))

let () =
  Alcotest.run "obs"
    [
      ( "jsonx",
        [
          case "to_string" test_jsonx_to_string;
          case "non-finite floats" test_jsonx_nonfinite;
          case "round-trip" test_jsonx_roundtrip;
          case "reject junk" test_jsonx_parse_junk;
          case "member" test_jsonx_member;
        ] );
      ( "clock",
        [
          case "monotone" test_clock_monotone;
          case "counts a sleep" test_clock_counts_sleep;
          case "wall stamp" test_wall_stamp;
        ] );
      ( "metrics",
        [
          case "counter" test_counter_math;
          case "gauge" test_gauge_math;
          case "histogram" test_histogram_math;
          case "kind mismatch" test_metrics_kind_mismatch;
          case "reports" test_metrics_reports;
        ] );
      ( "sink",
        [
          case "null is a no-op" test_null_sink;
          case "discard counts ids" test_discard_sink;
          case "memory + span nesting" test_memory_sink_and_nesting;
          case "jsonl file round-trip" test_jsonl_file_roundtrip;
          case "jsonl file on a full disk" test_jsonl_file_full_disk;
          case "flags to sink" test_of_flags;
          case "emit and the null span" test_emit_and_null_span;
        ] );
    ]
