(* In-process replay of a daemon workload's line script: the oracle
   the daemon's replies and final stats?/state? must equal, and, traced,
   the source of the per-layer figures.

   The replay calls the layers the way Server.serve does (parse ->
   Engine.apply / is_alive / in_certificate -> Journal.record_trial,
   compaction every [compact_every] accepted batches), but one public
   call at a time so each can be timed on its own.  Traced, it also
   forces the lazy cascade with an explicit Engine.result before the
   first certificate? after an apply, and re-runs each point query
   through Server.handle (read-only, so engine state is unchanged; its
   time is taken out of [wall_s]).  The work counters are taken
   identically in both modes. *)

module Engine = Fn_online.Engine
module Journal = Fn_resilience.Journal

(* faultnetd's configuration for [--seed 1 --alpha 1.0 --epsilon 0.5]. *)
let cfg = { Engine.default_config with Engine.seed = 1; alpha = 1.0; epsilon = 0.5 }
let meta = [ ("bench", Fn_obs.Jsonx.Str "perfbench") ]

let view () =
  match Fn_online.Server.view_of_spec (Fn_prng.Rng.create 1) Script.spec with
  | Ok v -> v
  | Error m -> failwith m

let open_journal path =
  match Journal.open_ ~path ~meta with Ok j -> j | Error m -> failwith ("journal: " ^ m)

let file_bytes path = (Unix.stat path).Unix.st_size

(* A reply as one int, so the timed phase keeps no reply strings alive. *)
let reply_code = function "ok true" -> 1 | "ok false" -> 0 | s -> 2 + Hashtbl.hash s

(* The reply Server.handle gives, with no deadline policy. *)
let handle engine line = Option.value ~default:"" (Fn_online.Server.handle engine line).reply

type result = {
  digest : string;
  stats : string;  (** the stats? reply after the script *)
  events : int;  (** events the script applied *)
  failed : int;
      (** requests whose daemon reply is not the replay's reply, or not
          the reply the script's own fault set predicts *)
  consistent : bool;
      (** final fault set is the script's; kept set holds no faulty node;
          alive count adds up *)
  wall_s : float;  (** the script loop, without create, digest and Server.handle re-runs *)
  counters : (string * float) list;
  layers : (string * float) list;  (** empty unless traced *)
}

let run ~path ~compact_every ~trace ~replies (script : Script.t) =
  let view = view () in
  let t_create = Meter.now_ns () in
  let engine = Engine.create ~cfg view in
  let create_s = Meter.elapsed_s t_create in
  let j = open_journal path in
  let n = Engine.universe engine in
  let parse = ref [] and query = ref [] and handled = ref [] and apply = ref []
  and cascade = ref [] and append = ref [] and encode = ref [] and compact = ref [] in
  let time samples f =
    if trace then begin
      let t0 = Meter.now_ns () in
      let r = f () in
      Meter.add samples (Meter.elapsed_ns t0);
      r
    end
    else f ()
  in
  let failed = ref 0 and next = ref 0 and cascade_pending = ref false in
  let apply_words = ref 0.0 and journal_bytes = ref 0 in
  let s0 = Engine.stats engine in
  (* the reply Server.handle renders for a point query *)
  let serve_query (r : Script.req) answer =
    let a = time query answer in
    if trace && r.Script.cls = Script.Query then ignore (time handled (fun () -> handle engine r.Script.line));
    let reply = "ok " ^ string_of_bool a in
    if Engine.degraded engine then reply ^ " degraded" else reply
  in
  Gc.compact ();
  let t_loop = Meter.now_ns () in
  Array.iteri
    (fun i (r : Script.req) ->
      let expected =
        match time parse (fun () -> Fn_online.Protocol.parse ~n r.Script.line) with
        | Ok (Some (Fn_online.Protocol.Apply evs)) -> (
          (* the allocation window holds the same code in both modes *)
          let t0 = Meter.now_ns () in
          let w0 = Meter.alloc_words () in
          let applied = Engine.apply engine evs in
          apply_words := !apply_words +. (Meter.alloc_words () -. w0);
          if trace then Meter.add apply (Meter.elapsed_ns t0);
          cascade_pending := true;
          match applied with
          | Error e -> "err rejected " ^ Fn_faults.Churn.error_to_string e
          | Ok k ->
            let b0 = file_bytes path in
            time append (fun () ->
                Journal.record_trial j ~scope:Fn_online.Server.scope ~index:!next
                  (Fn_online.Event.batch_to_json evs));
            journal_bytes := !journal_bytes + (file_bytes path - b0);
            incr next;
            if compact_every > 0 && !next mod compact_every = 0 && not (Engine.degraded engine)
            then begin
              let snapshot = time encode (fun () -> Engine.encode_state engine) in
              match
                time compact (fun () ->
                    Journal.compact j ~scope:Fn_online.Server.scope ~upto:!next ~snapshot)
              with
              | Ok () -> ()
              | Error m -> failwith ("replay compaction: " ^ m)
            end;
            Printf.sprintf "ok applied=%d alive=%d" k (Engine.alive_count engine))
        | Ok (Some (Fn_online.Protocol.Alive v)) -> serve_query r (fun () -> Engine.is_alive engine v)
        | Ok (Some (Fn_online.Protocol.Certificate v)) ->
          if trace && !cascade_pending then ignore (time cascade (fun () -> Engine.result engine));
          cascade_pending := false;
          serve_query r (fun () -> Engine.in_certificate engine v)
        | Ok _ -> "unexpected command"
        | Error e -> "err " ^ Fn_online.Protocol.error_to_string e
      in
      let agrees = function None -> true | Some e -> reply_code e = replies.(i) in
      if
        not
          (String.starts_with ~prefix:"ok" expected
          && agrees (Some expected) && agrees r.Script.expect)
      then incr failed)
    script.Script.reqs;
  let wall_s = Meter.elapsed_s t_loop -. (Meter.sum !handled *. 1e-9) in
  let stats = Engine.stats engine in
  let stats_reply = handle engine "stats?" in
  let digest = Engine.state_digest engine in
  let faulty = Engine.faulty_mask engine in
  let consistent =
    Fn_graph.Bitset.equal faulty script.Script.faulty
    && Fn_graph.Bitset.disjoint (Engine.result engine).Faultnet.Prune.kept faulty
    && Engine.alive_count engine + Fn_graph.Bitset.cardinal faulty = n
  in
  Journal.close j;
  let events = stats.Engine.events - s0.Engine.events in
  let batches = float_of_int (max 1 !next) in
  let counters =
    [
      ( "engine.surveys_per_event",
        float_of_int (stats.Engine.surveys - s0.Engine.surveys) /. float_of_int (max 1 events) );
      ("engine.alloc_words_per_event", !apply_words /. float_of_int (max 1 events));
      ("alloc_words_per_op", !apply_words /. batches);
      ("journal.bytes_per_batch", float_of_int !journal_bytes /. batches);
    ]
  in
  let layers =
    if not trace then []
    else
      [
        ("protocol.parse_ns", Meter.median !parse);
        ("engine.query_ns", Meter.median !query);
        ("server.handle_us", Meter.median !handled *. 1e-3);
        ("engine.apply_us", Meter.median !apply *. 1e-3);
        ("engine.cascade_us", Meter.median !cascade *. 1e-3);
        ("journal.append_us", Meter.median !append *. 1e-3);
        ("engine.encode_state_ms", Meter.median !encode *. 1e-6);
        ("journal.compact_ms", Meter.median !compact *. 1e-6);
        ("engine.create_s", create_s);
      ]
  in
  { digest; stats = stats_reply; events; failed = !failed; consistent; wall_s; counters; layers }

(* Recovery after a restart, once the fresh engine exists: open the
   journal, restore its snapshot, replay its suffix.  Returns
   (recover_ms, recovered digest). *)
let recover ~path =
  let engine = Engine.create ~cfg (view ()) in
  let t1 = Meter.now_ns () in
  let j = open_journal path in
  let r = Fn_online.Server.recover j engine in
  let recover_ms = Meter.elapsed_ns t1 *. 1e-6 in
  Journal.close j;
  match r with
  | Ok _ -> (recover_ms, Engine.state_digest engine)
  | Error m -> failwith ("recover: " ^ m)

(* Cost of one Fn_obs.Clock read; Server.handle makes two per request. *)
let clock_read_ns () =
  let reads = 1_000_000 in
  let t0 = Meter.now_ns () in
  for _ = 1 to reads do
    ignore (Sys.opaque_identity (Fn_obs.Clock.now_ns ()))
  done;
  Meter.elapsed_ns t0 /. float_of_int reads
