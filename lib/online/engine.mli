open Fn_graph

(** The online faultnet engine: one live topology, a fault mask
    evolving under batched churn, and always-current answers to
    "is v alive?", "what does Prune keep?", "what is the survivor
    expansion?" — maintained incrementally by {!Cert} and
    {!Alpha_cache} instead of recomputed per query.

    Determinism contract: every answer is a pure function of (view,
    config, accepted batch sequence) — byte-identical to the
    from-scratch computation on the same mask, which is exactly what
    {!audit} checks and the differential tests assert.  Which queries
    were asked, and when, moves only the process-local counters of
    {!stats}; no answer, {!state_digest} or snapshot depends on it. *)

type config = {
  seed : int;  (** derives every rng the engine ever creates *)
  radius : int;  (** certificate ball radius (default 2) *)
  alpha : float;  (** design expansion α of the fault-free topology *)
  epsilon : float;  (** Prune slack ε, threshold α·ε *)
  audit_every : int;  (** auto-audit period in batches; 0 disables *)
  max_dirty_frac : float;
      (** overload-shedding threshold (see {!Cert.create}); 1.0 = never
          shed *)
  postmortem : string option;
      (** directory for quarantine post-mortem snapshots; [None]
          disables the write (the quarantine itself still happens) *)
  domains : int option;
      (** worker pools of the α estimate; no answer, {!state_digest} or
          snapshot depends on it, so a journal resumes at any count *)
  obs : Fn_obs.Sink.t;
}

val default_config : config
(** seed 0, radius 2, alpha 0.5, epsilon 0.5, no auto-audit,
    no shedding, no post-mortems, sequential, null sink.  Use record
    update syntax. *)

type audit_report = {
  kept_equal : bool;
  culled_equal : bool;
  iterations_equal : bool;
  alpha_equal : bool;  (** bitwise *)
  faults : int;  (** divergent aspects, 0..4 *)
}

type stats = {
  events : int;  (** accepted events (post-coalescing) *)
  batches : int;  (** accepted batches *)
  rejected : int;  (** rejected batches (process-local) *)
  audits : int;
  divergences : int;
  surveys : int;  (** ball surveys since creation *)
  dirty_peak : int;  (** largest single-batch dirty region *)
  alpha_computes : int;
  shed_batches : int;  (** batches absorbed with their refresh deferred *)
  degraded_answers : int;  (** queries served from the stale pinned cascade *)
  quarantines : int;  (** audits that found divergence and rebuilt *)
}

type t

val create : ?cfg:config -> Gview.t -> t
(** All nodes start alive; faults arrive as batches.  Creation pays
    the one full survey (O(n · ball)); it does not estimate alpha. *)

val config : t -> config
val universe : t -> int
val view : t -> Gview.t

val alive_mask : t -> Bitset.t
(** Copies. *)

val faulty_mask : t -> Bitset.t
val alive_count : t -> int
val is_alive : t -> int -> bool

val apply : t -> Event.t list -> (int, Fn_faults.Churn.batch_error) result
(** Validate (against the live fault mask), coalesce, and apply one
    batch; [Ok k] is the number of events after coalescing.  On
    [Error] the engine state is untouched — invalid batches are
    rejected atomically.  Triggers the auto-audit when
    [audit_every > 0] divides the accepted-batch count. *)

val result : t -> Faultnet.Prune.result
(** The Prune cascade for the current mask (cached; read-only). *)

val alpha : t -> float
(** Survivor node expansion: {!Alpha_cache.reference} of the current
    [result.kept], served from the cache when it holds that mask. *)

val in_certificate : t -> int -> bool
(** Is [v] in the current survivor set [result.kept]? *)

val degraded : t -> bool
(** Overload shedding is in effect: {!alpha}, {!in_certificate} and
    {!result} currently serve the stale pre-overload cascade (each
    such answer is counted in [stats.degraded_answers]).  Cleared by
    the next under-threshold batch or {!audit}. *)

val quarantines : t -> int
(** Audits that found divergence and triggered the self-healing
    rebuild (see {!audit}). *)

val audit : t -> audit_report
(** Full recompute, field-by-field comparison, reconciliation (the
    scratch result replaces the incremental caches).  A degraded
    engine pays its deferred rebuild first, so the comparison is
    always against fresh incremental state.  On divergence the engine
    {e quarantines}: the divergent state is written to a post-mortem
    snapshot under [config.postmortem] (best-effort, never raises),
    the candidate state is rebuilt from scratch, and
    [stats.quarantines] is bumped.  Counted in {!stats}. *)

val stats : t -> stats

val state_digest : t -> string
(** FNV-1a hex digest of the replayable state: fault mask, cascade,
    alpha bits, accepted event/batch counts.  Process-local counters
    (rejections, cache hits, explicit audits) are excluded, so a
    journal replay of the accepted batches reproduces the digest
    exactly — the kill-and-resume contract. *)

val encode_state : t -> Fn_obs.Jsonx.t
(** The replayable state as one JSON object ([digest], [faulty],
    [events], [batches], [alive]) — the payload journal compaction
    snapshots in place of the batch prefix it drops.  Only replayable
    inputs are stored; derived state (the kept set) is recomputed on
    {!restore} and checked through [digest], keeping snapshot lines
    small on million-node views.  Do not encode a {!degraded} engine:
    its answers depend on deferred candidate state a mask-only
    snapshot cannot carry. *)

val restore : t -> Fn_obs.Jsonx.t -> (unit, string) result
(** Rebuild a {e fresh} engine (no batches applied yet) from
    {!encode_state} output: apply the snapshot's fault mask as one
    batch — by the incremental==scratch invariant this reproduces the
    snapshotting engine's cascade exactly — adopt the snapshot's
    event/batch counters, and verify the full {!state_digest} byte
    for byte.  [Error] on a non-fresh engine, a
    malformed snapshot, or any verification mismatch (discard the
    engine in that case). *)
