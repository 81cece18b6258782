(* faultnetd — long-lived online expansion daemon.

   Speaks the Fn_online.Protocol line protocol on stdin/stdout: apply
   churn batches, query aliveness / survivor certificates / alpha,
   audit, dump a state digest.  Deterministic given --seed: with
   --journal every accepted batch is recorded, and restarting with
   --journal PATH --resume replays the session into a byte-identical
   state (see Fn_online.Server). *)

let usage () =
  prerr_endline
    ("usage: faultnetd --topology SPEC [--seed N] [--alpha F] [--epsilon F] [--radius N]\n\
     \       [--audit-every N] [--domains N]\n\
     \       [--journal PATH] [--resume] [--compact-every N]\n\
     \       [--max-dirty-frac F] [--postmortem DIR] [--deadline SECS]\n\
     \       [--trace FILE] [--metrics]\n\
      topologies: " ^ Fn_topology.Spec.families);
  exit 2

let () =
  let topology = ref None in
  let seed = ref 1 in
  let alpha = ref 0.5 in
  let epsilon = ref 0.5 in
  let radius = ref 2 in
  let audit_every = ref 0 in
  let domains = ref None in
  let journal = ref None in
  let resume = ref false in
  let compact_every = ref 0 in
  let max_dirty_frac = ref 1.0 in
  let postmortem = ref None in
  let deadline = ref None in
  let trace = ref None in
  let metrics = ref false in
  let int_of s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let float_of s = match float_of_string_opt s with Some v -> v | None -> usage () in
  let complain m = prerr_endline ("faultnetd: " ^ m) in
  let reject m =
    complain m;
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--topology" :: v :: rest | "-t" :: v :: rest ->
      topology := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of v;
      parse rest
    | "--alpha" :: v :: rest ->
      alpha := float_of v;
      parse rest
    | "--epsilon" :: v :: rest ->
      epsilon := float_of v;
      parse rest
    | "--radius" :: v :: rest ->
      radius := int_of v;
      parse rest
    | "--audit-every" :: v :: rest ->
      audit_every := int_of v;
      parse rest
    | "--domains" :: v :: rest ->
      let d = int_of v in
      if d < 1 || d > Fn_parallel.Par.max_domains then
        reject (Printf.sprintf "--domains must be in 1..%d, got %s" Fn_parallel.Par.max_domains v);
      domains := Some d;
      parse rest
    | "--journal" :: v :: rest ->
      journal := Some v;
      parse rest
    | "--resume" :: rest ->
      resume := true;
      parse rest
    | "--compact-every" :: v :: rest ->
      compact_every := int_of v;
      if !compact_every < 0 then reject "--compact-every must be >= 0";
      parse rest
    | "--max-dirty-frac" :: v :: rest ->
      max_dirty_frac := float_of v;
      parse rest
    | "--postmortem" :: v :: rest ->
      postmortem := Some v;
      parse rest
    | "--deadline" :: v :: rest ->
      let d = float_of v in
      if not (d > 0.0) then reject "--deadline must be a positive number of seconds";
      deadline := Some d;
      parse rest
    | "--trace" :: v :: rest ->
      trace := Some v;
      parse rest
    | "--metrics" :: rest ->
      metrics := true;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !topology with
  | None -> usage ()
  | Some spec ->
    let sink =
      match Fn_obs.Sink.of_flags ~trace:!trace ~metrics:!metrics with
      | Ok sink -> sink
      | Error m -> reject m
    in
    (* [Stdlib.exit] does not unwind, so the protected body returns
       its exit code and the process exits only after [finish] has
       closed the trace and printed the metrics.  A trace that failed
       (a full disk) is named last and turns a clean exit into 1. *)
    let closed = ref (Ok ()) in
    let finish () =
      closed := Fn_obs.Sink.close sink;
      if !metrics then prerr_string (Fn_obs.Metrics.report_text ())
    in
    let code =
      Fun.protect ~finally:finish (fun () ->
        let rng = Fn_prng.Rng.create !seed in
        let cfg =
          {
            Fn_online.Engine.seed = !seed;
            radius = !radius;
            alpha = !alpha;
            epsilon = !epsilon;
            audit_every = !audit_every;
            max_dirty_frac = !max_dirty_frac;
            postmortem = !postmortem;
            domains = !domains;
            obs = sink;
          }
        in
        (* A spec the parser or its generator refuses (an odd n*d
           expander) is an Error, and a flag value the engine refuses
           (radius 0, epsilon outside (0, 1)) raises Invalid_argument:
           report either as the usage error it is. *)
        match
          Result.map (Fn_online.Engine.create ~cfg) (Fn_topology.Spec.view rng spec)
        with
        | exception Invalid_argument m ->
          complain m;
          2
        | Error m ->
          complain m;
          2
        | Ok engine ->
          let meta = [ ("topology", Fn_obs.Jsonx.Str spec) ] in
          (match
             Fn_online.Server.serve ?journal:!journal ~resume:!resume ~meta
               ?deadline_s:!deadline ~compact_every:!compact_every engine stdin stdout
           with
          | Ok () -> 0
          | Error m ->
            complain m;
            1))
    in
    match !closed with
    | Ok () -> exit code
    | Error m ->
      complain m;
      exit (max code 1)
