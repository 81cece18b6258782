open Fn_graph

type config = {
  seed : int;
  radius : int;
  alpha : float;
  epsilon : float;
  audit_every : int;
  max_dirty_frac : float;
  postmortem : string option;
  domains : int option;
  obs : Fn_obs.Sink.t;
}

let default_config =
  {
    seed = 0;
    radius = 2;
    alpha = 0.5;
    epsilon = 0.5;
    audit_every = 0;
    max_dirty_frac = 1.0;
    postmortem = None;
    domains = None;
    obs = Fn_obs.Sink.null;
  }

type audit_report = {
  kept_equal : bool;
  culled_equal : bool;
  iterations_equal : bool;
  alpha_equal : bool;
  faults : int;
}

type stats = {
  events : int;
  batches : int;
  rejected : int;
  audits : int;
  divergences : int;
  surveys : int;
  dirty_peak : int;
  alpha_computes : int;
  shed_batches : int;
  degraded_answers : int;
  quarantines : int;
}

type t = {
  cfg : config;
  view : Gview.t;
  n : int;
  cert : Cert.t;
  alpha_cache : Alpha_cache.t;
  faulty : Bitset.t;
  mutable events : int;
  mutable batches : int;
  mutable rejected : int;
  mutable audits : int;
  mutable divergences : int;
  mutable degraded_answers : int;
  mutable quarantines : int;
}

let create ?(cfg = default_config) view =
  let n = Gview.num_nodes view in
  let alive = Bitset.create_full n in
  {
    cfg;
    view;
    n;
    cert =
      Cert.create ~radius:cfg.radius ~max_dirty_frac:cfg.max_dirty_frac view ~alive
        ~alpha:cfg.alpha ~epsilon:cfg.epsilon;
    alpha_cache = Alpha_cache.create ?domains:cfg.domains cfg.seed;
    faulty = Bitset.create n;
    events = 0;
    batches = 0;
    rejected = 0;
    audits = 0;
    divergences = 0;
    degraded_answers = 0;
    quarantines = 0;
  }

let config t = t.cfg
let universe t = t.n
let view t = t.view
let alive_mask t = Cert.alive t.cert
let alive_count t = Cert.alive_count t.cert
let faulty_mask t = Bitset.copy t.faulty

let is_alive t v =
  if v < 0 || v >= t.n then invalid_arg "Engine.is_alive: node out of range";
  not (Bitset.mem t.faulty v)

let result t = Cert.result t.cert
let degraded t = Cert.degraded t.cert
let quarantines t = t.quarantines

(* A read served while shedding is a stale-but-stamped answer; the
   server appends the [degraded] stamp, here it is only counted. *)
let note_degraded t =
  if Cert.degraded t.cert then begin
    t.degraded_answers <- t.degraded_answers + 1;
    if Fn_obs.Sink.enabled t.cfg.obs then
      Fn_obs.Metrics.incr (Fn_obs.Metrics.counter "online.degraded_answers")
  end

let alpha t =
  note_degraded t;
  Alpha_cache.query t.alpha_cache t.view ~kept:(result t).Faultnet.Prune.kept

let in_certificate t v =
  if v < 0 || v >= t.n then invalid_arg "Engine.in_certificate: node out of range";
  note_degraded t;
  Bitset.mem (result t).Faultnet.Prune.kept v

let culled_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Faultnet.Prune.culled) (y : Faultnet.Prune.culled) ->
         x.size = y.size && x.boundary = y.boundary && Bitset.equal x.set y.set)
       a b

(* Post-mortem of a divergent audit: the incremental state as the
   audit caught it, frozen to one atomic snapshot file before the
   scratch truth overwrites it.  The filename is a pure function of
   the engine's counters (no timestamps — two runs of the same batch
   history quarantine into the same file), and the write is
   best-effort: a full disk or missing directory must not take down
   the service on top of the divergence it is reporting. *)
let postmortem_write t ~inc ~scr ~a_inc ~a_scr =
  match t.cfg.postmortem with
  | None -> ()
  | Some dir ->
    let path =
      Filename.concat dir
        (Printf.sprintf "quarantine-%03d-batch%d.json" t.quarantines t.batches)
    in
    let bits set =
      Fn_obs.Jsonx.List
        (List.rev (Bitset.fold (fun v acc -> Fn_obs.Jsonx.Int v :: acc) set []))
    in
    let payload =
      Fn_obs.Jsonx.Obj
        [
          ("events", Fn_obs.Jsonx.Int t.events);
          ("batches", Fn_obs.Jsonx.Int t.batches);
          ("faulty", bits t.faulty);
          ("kept_incremental", bits inc.Faultnet.Prune.kept);
          ("kept_scratch", bits scr.Faultnet.Prune.kept);
          ("iterations_incremental", Fn_obs.Jsonx.Int inc.Faultnet.Prune.iterations);
          ("iterations_scratch", Fn_obs.Jsonx.Int scr.Faultnet.Prune.iterations);
          ("alpha_incremental", Fn_obs.Jsonx.Str (Printf.sprintf "%h" a_inc));
          ("alpha_scratch", Fn_obs.Jsonx.Str (Printf.sprintf "%h" a_scr));
        ]
    in
    let meta = [ ("seed", Fn_obs.Jsonx.Int t.cfg.seed); ("n", Fn_obs.Jsonx.Int t.n) ] in
    (* lint:allow no-catchall-exn — crash-only: the post-mortem is
       diagnostic output; no failure writing it may escape the audit *)
    (try ignore (Fn_resilience.Snapshot.write ~path ~meta payload) with _ -> ())

(* Full-recompute audit: rerun Prune from scratch on the current mask,
   compare every field against the incremental state, then adopt the
   scratch truth (cascade cache and alpha cache both reconciled).  Any
   divergence is a maintenance bug — the differential tests assert
   zero.

   A degraded engine first pays its scheduled full recompute, so the
   audit always compares fresh incremental state.  If divergence is
   found anyway the engine {e quarantines}: the divergent state is
   frozen to a post-mortem file and the whole candidate state is
   rebuilt from scratch — self-healing instead of limping on with
   surveys that already lied once. *)
let audit t =
  if Cert.degraded t.cert then Cert.refresh t.cert;
  let inc = Cert.result t.cert in
  let mask = Cert.alive t.cert in
  let scr =
    Cert.scratch ~radius:t.cfg.radius t.view ~alive:mask ~alpha:t.cfg.alpha
      ~epsilon:t.cfg.epsilon
  in
  let a_inc = Alpha_cache.query t.alpha_cache t.view ~kept:inc.Faultnet.Prune.kept in
  let a_scr =
    Alpha_cache.reference ~seed:t.cfg.seed ?domains:t.cfg.domains t.view
      ~kept:scr.Faultnet.Prune.kept
  in
  let kept_equal = Bitset.equal inc.Faultnet.Prune.kept scr.Faultnet.Prune.kept in
  let culled_equal = culled_eq inc.Faultnet.Prune.culled scr.Faultnet.Prune.culled in
  let iterations_equal = inc.Faultnet.Prune.iterations = scr.Faultnet.Prune.iterations in
  let alpha_equal = Int64.equal (Int64.bits_of_float a_inc) (Int64.bits_of_float a_scr) in
  let faults =
    (if kept_equal then 0 else 1)
    + (if culled_equal then 0 else 1)
    + (if iterations_equal then 0 else 1)
    + if alpha_equal then 0 else 1
  in
  t.audits <- t.audits + 1;
  t.divergences <- t.divergences + faults;
  if faults > 0 then begin
    t.quarantines <- t.quarantines + 1;
    postmortem_write t ~inc ~scr ~a_inc ~a_scr;
    (* rebuild the incremental candidate state from scratch — the
       surveys that produced the divergence are not to be trusted *)
    Cert.refresh t.cert
  end;
  Cert.set_result t.cert scr;
  Alpha_cache.force t.alpha_cache ~kept:scr.Faultnet.Prune.kept a_scr;
  let on = Fn_obs.Sink.enabled t.cfg.obs in
  if on then begin
    Fn_obs.Span.instant t.cfg.obs "online.audit"
      ~fields:
        [
          ("faults", Fn_obs.Sink.Int faults);
          ("kept", Fn_obs.Sink.Int (Bitset.cardinal scr.Faultnet.Prune.kept));
        ];
    Fn_obs.Metrics.incr (Fn_obs.Metrics.counter "online.audits");
    Fn_obs.Metrics.set (Fn_obs.Metrics.gauge "online.degraded") 0.0;
    if faults > 0 then begin
      Fn_obs.Metrics.add (Fn_obs.Metrics.counter "online.divergences") faults;
      Fn_obs.Metrics.set
        (Fn_obs.Metrics.gauge "online.quarantines")
        (float_of_int t.quarantines)
    end
  end;
  { kept_equal; culled_equal; iterations_equal; alpha_equal; faults }

let apply t events =
  match Fn_faults.Churn.normalize_batch ~n:t.n ~faulty:t.faulty events with
  | Error e ->
    t.rejected <- t.rejected + 1;
    Error e
  | Ok evs ->
    let on = Fn_obs.Sink.enabled t.cfg.obs in
    let sp =
      if on then
        Fn_obs.Span.enter t.cfg.obs "online.apply"
          ~fields:[ ("events", Fn_obs.Sink.Int (List.length evs)) ]
      else Fn_obs.Span.null
    in
    let shed_before = Cert.shed t.cert in
    Fn_faults.Churn.apply_batch ~faulty:t.faulty evs;
    Cert.apply t.cert evs;
    t.events <- t.events + List.length evs;
    t.batches <- t.batches + 1;
    if on then begin
      Fn_obs.Metrics.add (Fn_obs.Metrics.counter "online.events") (List.length evs);
      Fn_obs.Metrics.incr (Fn_obs.Metrics.counter "online.batches");
      if Cert.shed t.cert > shed_before then
        Fn_obs.Metrics.incr (Fn_obs.Metrics.counter "online.shed_batches");
      Fn_obs.Metrics.set (Fn_obs.Metrics.gauge "online.degraded")
        (if Cert.degraded t.cert then 1.0 else 0.0);
      Fn_obs.Span.exit sp
        ~fields:[ ("dirty", Fn_obs.Sink.Int (Cert.last_dirty t.cert)) ]
    end;
    if t.cfg.audit_every > 0 && t.batches mod t.cfg.audit_every = 0 then
      ignore (audit t : audit_report);
    Ok (List.length evs)

let stats t =
  {
    events = t.events;
    batches = t.batches;
    rejected = t.rejected;
    audits = t.audits;
    divergences = t.divergences;
    surveys = Cert.recomputed t.cert;
    dirty_peak = Cert.dirty_peak t.cert;
    alpha_computes = Alpha_cache.computes t.alpha_cache;
    shed_batches = Cert.shed t.cert;
    degraded_answers = t.degraded_answers;
    quarantines = t.quarantines;
  }

(* FNV-1a over the replayable state: the fault mask, the cascade
   (kept, every cull's size/boundary/members, iteration count), the
   alpha bits, and the batch counters.  Process-local counters that a
   journal replay cannot reproduce (rejections, cache hits, explicit
   audits) are deliberately excluded — kill-and-resume must yield the
   identical digest. *)
let state_digest t =
  let h = ref 0xcbf29ce484222325L in
  let mix64 x = h := Int64.mul (Int64.logxor !h x) 0x100000001b3L in
  let mix i = mix64 (Int64.of_int i) in
  mix t.n;
  Bitset.iter (fun v -> mix v) t.faulty;
  mix (-1);
  let r = result t in
  Bitset.iter (fun v -> mix v) r.Faultnet.Prune.kept;
  mix (-2);
  List.iter
    (fun (c : Faultnet.Prune.culled) ->
      mix c.size;
      mix c.boundary;
      Bitset.iter (fun v -> mix v) c.set;
      mix (-3))
    r.Faultnet.Prune.culled;
  mix r.Faultnet.Prune.iterations;
  mix64 (Int64.bits_of_float (alpha t));
  mix t.events;
  mix t.batches;
  Printf.sprintf "%016Lx" !h

(* The replayable state as one JSON object — what journal compaction
   folds the dropped prefix into.  The fault mask alone determines the
   cascade and alpha (the incremental==scratch invariant), so only the
   mask, the counters, and the digest to verify against travel; [kept]
   rides along as a cheaper second check.  Never encode a degraded
   engine: its served answers depend on shed candidate state that a
   mask-only snapshot cannot carry — the server skips compaction while
   degraded for exactly this reason. *)
(* The snapshot stores the replayable inputs only — fault mask plus
   accepted-work counters — never derived state like the kept set: a
   10^6-node certificate would bloat every snapshot line by megabytes
   and dominate recovery with JSON parsing.  The digest covers the
   derived state bit for bit, so restore still proves the recomputed
   cascade matches what the snapshotting engine held. *)
let encode_state t =
  let bits set =
    Fn_obs.Jsonx.List
      (List.rev (Bitset.fold (fun v acc -> Fn_obs.Jsonx.Int v :: acc) set []))
  in
  Fn_obs.Jsonx.Obj
    [
      ("digest", Fn_obs.Jsonx.Str (state_digest t));
      ("faulty", bits t.faulty);
      ("events", Fn_obs.Jsonx.Int t.events);
      ("batches", Fn_obs.Jsonx.Int t.batches);
      ("alive", Fn_obs.Jsonx.Int (alive_count t));
    ]

let restore t state =
  let field key = Fn_obs.Jsonx.member key state in
  let int_field key =
    match field key with Some (Fn_obs.Jsonx.Int i) -> Some i | _ -> None
  in
  let nodes key =
    match field key with
    | Some (Fn_obs.Jsonx.List items) ->
      let rec decode acc = function
        | [] -> Some (List.rev acc)
        | Fn_obs.Jsonx.Int v :: rest when v >= 0 && v < t.n -> decode (v :: acc) rest
        | _ -> None
      in
      decode [] items
    | _ -> None
  in
  if t.events > 0 || t.batches > 0 || Bitset.cardinal t.faulty > 0 then
    Error "Engine.restore: engine already has state (restore wants a fresh engine)"
  else
    match (field "digest", nodes "faulty", int_field "events", int_field "batches") with
    | Some (Fn_obs.Jsonx.Str digest), Some faulty, Some events, Some batches
      when events >= 0 && batches >= 0 -> (
      (* Re-derive the cascade by applying the snapshot mask as one
         batch: by the incremental==scratch invariant this lands on
         the exact state the snapshotting engine held, which the
         digest check then proves byte for byte (the digest covers the
         kept set, so derived state needs no separate verification). *)
      let evs = List.map (fun v -> Event.Fault v) faulty in
      (match evs with
      | [] -> ()
      | _ :: _ ->
        Fn_faults.Churn.apply_batch ~faulty:t.faulty evs;
        Cert.apply t.cert evs;
        if Cert.degraded t.cert then Cert.refresh t.cert);
      t.events <- events;
      t.batches <- batches;
      let got = state_digest t in
      if String.equal got digest then Ok ()
      else
        Error
          (Printf.sprintf
             "Engine.restore: digest mismatch — snapshot has %s, replay gives %s"
             digest got))
    | _ -> Error "Engine.restore: malformed snapshot state"
