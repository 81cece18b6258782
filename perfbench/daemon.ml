(* The serve and ingest workloads: bin/faultnetd.exe as a subprocess,
   one closed-loop client on its pipe, checked against the script's own
   fault set and against an in-process replay of the same script.

   The timed phase runs in short blocks of like requests (about half a
   second of serve cycles, 25 ingest batches), each between two runs of
   the reference kernel: round trips to a trivial echo server over the
   same kind of pipe.  Between blocks, untimed, the run may take one
   more set-up sample (a second daemon's cold start for serve, a
   --resume restart for ingest), also between two runs of the kernel,
   so the set-up samples spread over the run.  Every timing is taken at
   the reference speed (Meter.reference) and the figures are medians
   and totals over the whole run. *)

let daemon_args ~journal extra =
  [ "--topology"; Script.spec; "--seed"; "1"; "--alpha"; "1.0"; "--epsilon"; "0.5"; "--journal"; journal ]
  @ extra

(* The daemon workloads' reference kernel: [echo_trips] request/reply
   round trips, with the same client code as the daemon's requests, to
   a trivial line server (fnbench --echo) on the same CPU.  The point
   query is mostly such a round trip, and the daemon slows with the
   host as a pipe echo does: in a ten-minute serve trace timed against
   a one-byte echo, log query p50 and log echo time per half-second
   block correlated at about 0.7, and the query-to-echo ratio moved by
   2% between 15 s windows where the query p50 itself moved by 12%. *)
let echo_trips = 2000
let echo_nominal_ns = 8e6

let echo_reference () =
  let echo = Client.spawn ~exe:Sys.executable_name [ "--echo" ] in
  (* wait for the server to come up, so the first kernel time is a
     steady one *)
  ignore (Client.request echo "alive? 0");
  let kernel () =
    let t0 = Meter.now_ns () in
    for _ = 1 to echo_trips do
      ignore (Client.request echo "alive? 0")
    done;
    Meter.elapsed_ns t0
  in
  (echo, Meter.reference kernel ~nominal:echo_nominal_ns)

(* [audit!] recomputes the cascade from scratch inside the daemon and
   compares it with the incremental state. *)
let audit_clean reply =
  String.starts_with ~prefix:"ok" reply && List.mem "faults=0" (String.split_on_char ' ' reply)

type drive = {
  lat : float array;  (** ns from write to reply, per request *)
  replies : int array;  (** {!Replay.reply_code} of each reply *)
  bounds : (int * int) array;  (** each block's requests [lo, hi) *)
  block_s : float array;  (** each block's wall time *)
  scale : float array;  (** each block's factor to the reference speed *)
}

(* The timed phase: every request timed from write to reply on the
   monotonic clock, in blocks starting at the request indices [cuts];
   [between k] runs, untimed, before block k > 0.  Replies are judged
   afterwards, against the script and the replay. *)
let drive c (script : Script.t) ~r ~cuts ~between =
  let reqs = script.Script.reqs in
  let len = Array.length reqs in
  let lat = Array.make len 0.0 and replies = Array.make len (-1) in
  let bounds = Array.of_list (List.combine (0 :: cuts) (cuts @ [ len ])) in
  let scale = Array.make (Array.length bounds) 1.0 in
  Gc.compact ();
  Meter.take r;
  let block_s =
    Array.mapi
      (fun k (lo, hi) ->
        if k > 0 then between k;
        let t_block = Meter.now_ns () in
        for i = lo to hi - 1 do
          let t0 = Meter.now_ns () in
          let reply = Client.request c reqs.(i).Script.line in
          lat.(i) <- Meter.elapsed_ns t0;
          replies.(i) <- Replay.reply_code reply
        done;
        let s = Meter.elapsed_s t_block in
        scale.(k) <- Meter.rescale r;
        s)
      bounds
  in
  { lat; replies; bounds; block_s; scale }

(* Latencies (us) of one request class within [lo, hi). *)
let class_us d (script : Script.t) cls (lo, hi) =
  let out = ref [] in
  for i = lo to hi - 1 do
    if script.Script.reqs.(i).Script.cls = cls then Meter.add out (d.lat.(i) *. 1e-3)
  done;
  !out

let all_us d script cls = class_us d script cls (0, Array.length d.lat)

(* A class's p50 at the reference speed: the median over blocks of each
   block's p50, scaled by that block's factor. *)
let scaled_p50_us d script cls =
  Meter.median
    (List.filter_map
       (fun k ->
         match class_us d script cls d.bounds.(k) with
         | [] -> None
         | l -> Some (Meter.median l *. d.scale.(k)))
       (List.init (Array.length d.bounds) Fun.id))

let phase_s d = Array.fold_left ( +. ) 0.0 d.block_s

(* The phase's wall time at the reference speed. *)
let scaled_phase_s d =
  let t = ref 0.0 in
  Array.iteri (fun k s -> t := !t +. (s *. d.scale.(k))) d.block_s;
  !t

(* The in-process oracle, and when traced a second, timed replay:
   digests, stats and counters of both must agree. *)
let replays ~dir ~compact_every ~trace ~replies script =
  let plain =
    Replay.run ~path:(Filename.concat dir "replay.jsonl") ~compact_every ~trace:false ~replies
      script
  in
  Gc.compact ();
  if not trace then (plain, None)
  else
    let traced =
      Replay.run ~path:(Filename.concat dir "traced.jsonl") ~compact_every ~trace:true ~replies
        script
    in
    Gc.compact ();
    (plain, Some traced)

let counters_of (r : Replay.result) =
  ("digest", r.Replay.digest)
  :: List.map (fun (k, v) -> (k, Printf.sprintf "%.6f" v)) r.Replay.counters

(* Checks every daemon workload makes after its timed phase. *)
let daemon_checks ~stats ~state ~audit (plain : Replay.result) =
  [
    ("stats? equals replay", stats = plain.Replay.stats);
    ("state? equals replay", state = "ok digest=" ^ plain.Replay.digest);
    ("audit! finds incremental = from-scratch", audit_clean audit);
    ("replay's fault set is the script's, kept set avoids it", plain.Replay.consistent);
  ]

let trace_checks plain = function
  | None -> []
  | Some (t : Replay.result) ->
    [
      ("traced replay answers equal the daemon's", t.Replay.failed = 0);
      ("traced replay digest equals untraced", t.Replay.digest = plain.Replay.digest);
      ("traced replay stats equal untraced", t.Replay.stats = plain.Replay.stats);
      ("traced replay counters equal untraced", counters_of t = counters_of plain);
    ]

let trace_layers plain = function
  | None -> []
  | Some (t : Replay.result) ->
    t.Replay.layers
    @ t.Replay.counters
    @ [
        ("trace.overhead_s", t.Replay.wall_s -. plain.Replay.wall_s);
        ("obs.clock_read_ns", Replay.clock_read_ns ());
      ]

(* serve: blocks of 225 cycles (about half a second); a second daemon's
   cold start before four evenly spaced blocks. *)
let block_cycles = 225
let serve_side_starts = 4
let cycles_for ~seconds = 2 * block_cycles * seconds

let serve ~exe ~dir ~seed ~seconds ~trace =
  let script = Script.serve ~seed ~cycles:(cycles_for ~seconds) in
  let len = Array.length script.Script.reqs in
  let echo, r = echo_reference () in
  let setup = ref [] and setup_wall = ref [] in
  let start i =
    let journal = Filename.concat dir (Printf.sprintf "serve%d.jsonl" i) in
    let c, s = Client.start ~exe (daemon_args ~journal []) in
    Meter.add setup_wall s;
    Meter.add setup (s *. Meter.rescale r);
    c
  in
  let c = start 0 in
  let blocks = cycles_for ~seconds / block_cycles in
  let cuts = List.init (blocks - 1) (fun k -> (k + 1) * len / blocks) in
  let every = max 1 (blocks / (serve_side_starts + 1)) in
  let between k = if k mod every = 0 && k / every <= serve_side_starts then Client.quit (start k) in
  let d = drive c script ~r ~cuts ~between in
  Client.quit echo;
  let rss = Client.vmhwm_mb c in
  let stats = Client.request c "stats?" in
  let state = Client.request c "state?" in
  let audit = Client.request c "audit!" in
  Client.quit c;
  let plain, traced = replays ~dir ~compact_every:0 ~trace ~replies:d.replies script in
  let query = all_us d script Script.Query and apply = all_us d script Script.Apply in
  let layers =
    match traced with
    | None -> []
    | Some t ->
      ("pipe_us", Meter.median query -. List.assoc "server.handle_us" t.Replay.layers)
      :: trace_layers plain traced
  in
  {
    Report.attempted = len;
    failed = plain.Replay.failed;
    checks = daemon_checks ~stats ~state ~audit plain @ trace_checks plain traced;
    e2e =
      [
        ("setup_s", Meter.median !setup);
        ("ops_per_s", float_of_int len /. scaled_phase_s d);
        ("op_p50_us", scaled_p50_us d script Script.Query);
        ("rss_mb", rss);
      ];
    layers;
    counters = counters_of plain;
    notes =
      [
        ("query_p50_wall_us", Meter.median query);
        ("requests_per_s_wall", float_of_int len /. phase_s d);
        ("query_p99_wall_us", Meter.quantile query 0.99);
        ("query_samples", float_of_int (List.length query));
        ("apply_p50_us", scaled_p50_us d script Script.Apply);
        ("apply_p99_wall_us", Meter.quantile apply 0.99);
        ("apply_samples", float_of_int (List.length apply));
        ("cascade_p50_us", scaled_p50_us d script Script.Cascade);
        ("setup_median_wall_s", Meter.median !setup_wall);
        ("setup_samples", float_of_int (List.length !setup));
        ("phase_s", phase_s d);
        ("reference_median_ms", Meter.median r.Meter.times *. 1e-6);
      ];
  }

(* ingest: blocks of 25 batches.  Before every block that starts mid-way
   between two compactions (after the first one), the journal as it
   stands is copied and a second daemon resumes from the copy: a crash
   at that point, since the journal is flushed before every reply.  With
   the restart after the final SIGKILL, every recovery sample restores a
   snapshot and replays a suffix of the same length. *)
let ingest_block = 25

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

let ingest ~exe ~dir ~seed ~seconds ~trace =
  let batches = Script.ingest_batches ~seconds in
  let script = Script.ingest ~seed ~batches in
  let len = Array.length script.Script.reqs in
  let journal = Filename.concat dir "ingest.jsonl" in
  let compact = [ "--compact-every"; string_of_int Script.compact_every ] in
  let echo, r = echo_reference () in
  let c, clean_start_s = Client.start ~exe (daemon_args ~journal compact) in
  let recover = ref [] and recover_wall = ref [] in
  let resume path =
    let c, s = Client.start ~exe (daemon_args ~journal:path ("--resume" :: compact)) in
    Meter.add recover_wall s;
    Meter.add recover (s *. Meter.rescale r);
    c
  in
  (* two requests (apply, certificate?) per batch *)
  let cuts = List.init ((batches / ingest_block) - 1) (fun k -> 2 * ingest_block * (k + 1)) in
  let between k =
    let at = k * ingest_block in
    if at mod Script.compact_every = Script.compact_every / 2 && at > Script.compact_every then begin
      let copy = Filename.concat dir (Printf.sprintf "crash%d.jsonl" k) in
      copy_file journal copy;
      Client.kill (resume copy);
      Sys.remove copy
    end
  in
  let d = drive c script ~r ~cuts ~between in
  let rss = Client.vmhwm_mb c in
  let stats = Client.request c "stats?" in
  let state = Client.request c "state?" in
  let audit = Client.request c "audit!" in
  Client.kill c;
  Meter.take r;
  let c = resume journal in
  Client.quit echo;
  let resumed = Client.request c "state?" in
  Client.kill c;
  let plain, traced =
    replays ~dir ~compact_every:Script.compact_every ~trace ~replies:d.replies script
  in
  (* traced: recovery in-process, from the traced replay's own journal *)
  let recovery =
    Option.map (fun _ -> Replay.recover ~path:(Filename.concat dir "traced.jsonl")) traced
  in
  let layers =
    match recovery with
    | None -> []
    | Some (recover_ms, _) -> ("server.recover_ms", recover_ms) :: trace_layers plain traced
  in
  let apply = all_us d script Script.Apply in
  {
    Report.attempted = len;
    failed = plain.Replay.failed;
    checks =
      daemon_checks ~stats ~state ~audit plain
      @ [ ("resumed state? equals pre-kill state?", resumed = state) ]
      @ (match recovery with
        | Some (_, digest) -> [ ("traced journal recovers the replay digest", digest = plain.Replay.digest) ]
        | None -> [])
      @ trace_checks plain traced;
    e2e =
      [
        ("setup_s", Meter.median !recover);
        ("ops_per_s", float_of_int plain.Replay.events /. scaled_phase_s d);
        ("op_p50_us", scaled_p50_us d script Script.Apply);
        ("rss_mb", rss);
      ];
    layers;
    counters = counters_of plain;
    notes =
      [
        ("apply_p50_wall_us", Meter.median apply);
        ("events_per_s_wall", float_of_int plain.Replay.events /. phase_s d);
        ("apply_p99_wall_us", Meter.quantile apply 0.99);
        ("apply_samples", float_of_int (List.length apply));
        ("compacting_p50_wall_us", Meter.median (all_us d script Script.Compacting));
        ("cascade_p50_us", scaled_p50_us d script Script.Cascade);
        ("clean_start_wall_s", clean_start_s);
        ("setup_median_wall_s", Meter.median !recover_wall);
        ("setup_samples", float_of_int (List.length !recover));
        ("phase_s", phase_s d);
        ("reference_median_ms", Meter.median r.Meter.times *. 1e-6);
      ];
  }
