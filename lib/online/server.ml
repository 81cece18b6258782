type outcome = { reply : string option; quit : bool }

let scope = "online.batch"
let reply s = { reply = Some s; quit = false }

(* The [degraded] stamp: answers served from the stale pinned cascade
   while overload shedding is in effect say so on the wire, so a
   client can tell "current truth" from "last good truth". *)
let stamp engine s = if Engine.degraded engine then s ^ " degraded" else s

let dispatch ?on_batch engine cmd =
  match cmd with
  | Protocol.Quit -> { reply = Some "ok bye"; quit = true }
  | Protocol.Alive v -> reply ("ok " ^ string_of_bool (Engine.is_alive engine v))
  | Protocol.Certificate v ->
    reply (stamp engine ("ok " ^ string_of_bool (Engine.in_certificate engine v)))
  | Protocol.Alpha ->
    reply (stamp engine ("ok " ^ Protocol.float_hex (Engine.alpha engine)))
  | Protocol.State -> reply ("ok digest=" ^ Engine.state_digest engine)
  | Protocol.Stats ->
    let s = Engine.stats engine in
    reply
      (Printf.sprintf
         "ok events=%d batches=%d rejected=%d audits=%d divergences=%d surveys=%d \
          dirty_peak=%d alpha_computes=%d shed_batches=%d degraded_answers=%d \
          quarantines=%d"
         s.Engine.events s.Engine.batches s.Engine.rejected s.Engine.audits
         s.Engine.divergences s.Engine.surveys s.Engine.dirty_peak s.Engine.alpha_computes
         s.Engine.shed_batches s.Engine.degraded_answers s.Engine.quarantines)
  | Protocol.Audit ->
    let r = Engine.audit engine in
    reply
      (Printf.sprintf "ok kept=%b culled=%b iterations=%b alpha=%b faults=%d quarantines=%d"
         r.Engine.kept_equal r.Engine.culled_equal r.Engine.iterations_equal
         r.Engine.alpha_equal r.Engine.faults (Engine.quarantines engine))
  | Protocol.Apply evs -> (
    match Engine.apply engine evs with
    | Error e -> reply ("err rejected " ^ Fn_faults.Churn.error_to_string e)
    | Ok k ->
      (match on_batch with Some f -> f evs | None -> ());
      reply (Printf.sprintf "ok applied=%d alive=%d" k (Engine.alive_count engine)))

(* Queries get a post-hoc deadline (cooperative: OCaml cannot preempt
   a running computation): the answer is computed, but if computing
   it blew the budget the client gets [err deadline] instead — a slow
   read must look like a refusal, not a stall.
   State-changing commands are exempt: an applied batch must answer
   [ok], or the "state changes only on ok" invariant breaks. *)
let deadline_applies = function
  | Protocol.Alive _ | Protocol.Certificate _ | Protocol.Alpha | Protocol.Stats
  | Protocol.State ->
    true
  | Protocol.Apply _ | Protocol.Audit | Protocol.Quit -> false

let handle ?limits ?deadline_s ?on_batch engine line =
  match Protocol.parse ?limits ~n:(Engine.universe engine) line with
  | Ok None -> { reply = None; quit = false }
  | Error e -> reply ("err " ^ Protocol.error_to_string e)
  | Ok (Some cmd) ->
    let obs = (Engine.config engine).Engine.obs in
    let on = Fn_obs.Sink.enabled obs in
    let since_ns = Fn_obs.Clock.now_ns () in
    let out = dispatch ?on_batch engine cmd in
    let elapsed_s = Fn_obs.Clock.elapsed_s ~since_ns in
    if on then
      Fn_obs.Metrics.observe (Fn_obs.Metrics.histogram "online.command_seconds") elapsed_s;
    match deadline_s with
    | Some d when deadline_applies cmd && elapsed_s > d ->
      if on then Fn_obs.Metrics.incr (Fn_obs.Metrics.counter "online.deadline_misses");
      reply (Printf.sprintf "err deadline query exceeded %s s budget" (Protocol.float_hex d))
    | Some _ | None -> out

let run_loop ?limits ?deadline_s ?on_batch engine ic oc =
  let quit = ref false in
  (try
     while not !quit do
       let line = input_line ic in
       let out = handle ?limits ?deadline_s ?on_batch engine line in
       (match out.reply with
       | Some s ->
         output_string oc s;
         output_char oc '\n';
         flush oc
       | None -> ());
       if out.quit then quit := true
     done
   with End_of_file -> ());
  Ok ()

(* Bring a fresh engine up to date from an open journal: restore the
   compaction snapshot if one governs (O(snapshot) instead of
   O(dropped prefix)), then replay the remaining batches.  Returns the
   next free trial index.  Shared by [serve], the recovery benchmarks,
   and the kill-and-resume tests. *)
let recover j engine =
  let next = ref 0 in
  let start =
    match Fn_resilience.Journal.find_snapshot j ~scope with
    | None -> Ok ()
    | Some (upto, value) -> (
      match Engine.restore engine value with
      | Ok () ->
        next := upto;
        Ok ()
      | Error m -> Error (Printf.sprintf "journal snapshot restore failed: %s" m))
  in
  match start with
  | Error m -> Error m
  | Ok () ->
    let failure = ref None in
    let running = ref true in
    while !running do
      match Fn_resilience.Journal.find_trial j ~scope ~index:!next with
      | None -> running := false
      | Some json -> (
        match Event.batch_of_json json with
        | None ->
          failure := Some (Printf.sprintf "journal record %d is not an event batch" !next);
          running := false
        | Some evs -> (
          match Engine.apply engine evs with
          | Error e ->
            failure :=
              Some
                (Printf.sprintf "journal replay rejected batch %d: %s" !next
                   (Fn_faults.Churn.error_to_string e));
            running := false
          | Ok _ -> incr next))
    done;
    (match !failure with
    | Some m -> Error m
    | None -> Ok !next)

let serve ?journal ?(resume = false) ?(meta = []) ?limits ?deadline_s
    ?(compact_every = 0) engine ic oc =
  if compact_every < 0 then invalid_arg "Server.serve: compact_every must be >= 0";
  match journal with
  | None -> run_loop ?limits ?deadline_s engine ic oc
  | Some path ->
    let cfg = Engine.config engine in
    (* Bind the journal to everything that determines replay results:
       replaying these batches into an engine built with different
       parameters would silently splice two different sessions. *)
    let meta =
      meta
      @ [
          ("service", Fn_obs.Jsonx.Str "faultnetd");
          ("seed", Fn_obs.Jsonx.Int cfg.Engine.seed);
          ("n", Fn_obs.Jsonx.Int (Engine.universe engine));
          ("radius", Fn_obs.Jsonx.Int cfg.Engine.radius);
          ("alpha", Fn_obs.Jsonx.Str (Protocol.float_hex cfg.Engine.alpha));
          ("epsilon", Fn_obs.Jsonx.Str (Protocol.float_hex cfg.Engine.epsilon));
          ("audit_every", Fn_obs.Jsonx.Int cfg.Engine.audit_every);
        ]
    in
    (match Fn_resilience.Journal.open_ ~path ~meta with
    | Error m -> Error m
    | Ok j ->
      Fun.protect
        ~finally:(fun () -> Fn_resilience.Journal.close j)
        (fun () ->
          if Fn_resilience.Journal.recovered j > 0 && not resume then
            Error
              (path
             ^ " already holds a recorded session; pass resume to replay and continue it")
          else
            match recover j engine with
            | Error m -> Error m
            | Ok start ->
              let next = ref start in
              let accepted = ref 0 in
              let on = Fn_obs.Sink.enabled cfg.Engine.obs in
              (* Compact every [compact_every] accepted batches — but
                 never while degraded: a mask-only snapshot cannot
                 stand in for deferred candidate state, so compaction
                 waits for the catch-up rebuild.  A failed compaction
                 is logged to metrics and the journal keeps governing —
                 crash-only means degraded persistence, not a dead
                 service. *)
              let maybe_compact () =
                if
                  compact_every > 0
                  && !accepted mod compact_every = 0
                  && not (Engine.degraded engine)
                then
                  match
                    Fn_resilience.Journal.compact j ~scope ~upto:!next
                      ~snapshot:(Engine.encode_state engine)
                  with
                  | Ok () ->
                    if on then
                      Fn_obs.Metrics.incr (Fn_obs.Metrics.counter "online.compactions")
                  | Error _ ->
                    if on then
                      Fn_obs.Metrics.incr
                        (Fn_obs.Metrics.counter "online.compact_failures")
              in
              let on_batch evs =
                Fn_resilience.Journal.record_trial j ~scope ~index:!next
                  (Event.batch_to_json evs);
                incr next;
                incr accepted;
                maybe_compact ()
              in
              run_loop ?limits ?deadline_s ~on_batch engine ic oc))

let view_of_spec = Fn_topology.Spec.view
