open Fn_graph
open Fn_prng

(** Serving layer: the {!Protocol} wired to an {!Engine} over line
    channels, with optional journaling, snapshots and compaction for
    bounded-cost kill-and-resume.

    Crash-only discipline: every accepted batch is journaled (scope
    ["online.batch"], dense indices) {e after} it is applied and
    {e before} the reply is sent, so a kill at any point loses at most
    the batch whose reply the client never saw.  Recovery restores the
    latest compaction snapshot (if any) and replays the journaled
    suffix through a fresh engine — batch normalization and the
    alpha estimates are pure functions of the replayed history,
    so the resumed process answers [state?] with the digest the
    uninterrupted one would have.

    Hardening: parsing is total ({!Protocol.parse} — every byte string
    gets a typed reply, nothing raises), request size limits apply per
    line and per batch, and read queries carry an optional post-hoc
    deadline ([err deadline ...] instead of a stalled answer;
    state-changing commands are exempt so engine state changes exactly
    on [ok] replies). *)

type outcome = { reply : string option; quit : bool }
(** [reply = None] for ignored lines (blank, comment). *)

val scope : string
(** The journal trial scope batches are recorded under
    (["online.batch"]) — exposed for benchmarks and tests that build
    journals directly. *)

val handle :
  ?limits:Protocol.limits ->
  ?deadline_s:float ->
  ?on_batch:(Event.t list -> unit) ->
  Engine.t ->
  string ->
  outcome
(** Process one line.  [on_batch] fires on each accepted [apply] with
    the raw batch (journal hook).  [limits] defaults to
    {!Protocol.default_limits}.  [deadline_s] is the query budget in
    seconds, checked after the answer is computed: a read query
    ([alive?], [certificate?], [alpha?], [stats?], [state?]) that took
    longer is answered [err deadline ...]; [apply] and [audit!] are
    exempt.  No budget by default.  With an enabled obs sink each
    command's latency lands in the ["online.command_seconds"]
    histogram and deadline refusals count in
    ["online.deadline_misses"].  Exposed so tests, fuzzers and
    benchmarks can drive a session without pipes or processes. *)

val recover : Fn_resilience.Journal.t -> Engine.t -> (int, string) result
(** Bring a {e fresh} engine up to date from an open journal: restore
    the compaction snapshot if one governs, then replay the remaining
    batches in index order.  [Ok next] is the next free trial index.
    Shared by {!serve}, the recovery benchmarks and the
    kill-and-resume tests. *)

val serve :
  ?journal:string ->
  ?resume:bool ->
  ?meta:(string * Fn_obs.Jsonx.t) list ->
  ?limits:Protocol.limits ->
  ?deadline_s:float ->
  ?compact_every:int ->
  Engine.t ->
  in_channel ->
  out_channel ->
  (unit, string) result
(** Read lines from [ic] until [quit] or EOF, answering each through
    {!handle} on [oc] (flushed per line).

    [journal] names the JSONL file; its meta header binds seed,
    universe, radius, alpha, epsilon and audit period (plus caller
    [meta], e.g. the topology spec) — a mismatched reopen is refused,
    as is an existing journal without [resume].  Stored keys the run
    does not bind are ignored, so journals whose header still carries
    a [mode] key resume.  With [resume] the journal is {!recover}ed
    into [engine] (which must be freshly created) before serving
    begins.

    [compact_every > 0] compacts the journal after every that many
    accepted batches (skipped while the engine is {!Engine.degraded} —
    a mask-only snapshot cannot carry deferred candidate state).  A
    failed compaction leaves the old journal governing and counts in
    ["online.compact_failures"]; the service keeps running. *)

val view_of_spec : Rng.t -> string -> (Gview.t, string) result
(** {!Fn_topology.Spec.view}, the one topology-spec parser of
    [faultnet_cli] and [faultnetd], under the serving layer's name. *)
