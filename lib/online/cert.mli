open Fn_graph

(** Incremental Prune survivor certificates.

    Maintains, under batched churn, the state needed to answer "what
    does Prune(ε) keep?" without re-running it from scratch: for every
    alive node [v] a radius-r ball survey — [s = |B_r(v)|] alive nodes
    within distance r in the alive subgraph, [b = |Γ(B_r(v))|] its
    node boundary — and the bit "does [v]'s ball meet the ratio bound
    [b <= α·ε·s]".  A churn batch only re-surveys nodes within
    unrestricted distance r + 1 of a change (the locality lemma:
    a ball survey reads aliveness only that far from its center), so
    steady-state cost per event is proportional to the dirty region,
    not to n.

    Culling is deferred: {!result} runs the Prune cascade lazily over
    the maintained candidates — demoting survivors swallowed by a
    culled ball, re-promoting none (culls only shrink the mask) — and
    caches it until the next batch.  The defining property, enforced
    by the differential tests: after {e any} event sequence, {!result}
    equals {!scratch} on the same mask, field for field.

    The finder both paths share ({!scratch_finder}, a
    {!Faultnet.Low_expansion.t} like the estimator portfolio, but not
    that portfolio) scans alive nodes in ascending id order and culls
    the first qualifying ball, so the reference is deterministic and
    rng-free.  Ball sizes and boundaries do not depend on neighbor
    order, so the cascade is the same on an implicit view and on its
    materialized twin; [alpha?] is the estimate of its survivors
    ({!Alpha_cache}). *)

type t

val create :
  ?radius:int ->
  ?max_dirty_frac:float ->
  Gview.t ->
  alive:Bitset.t ->
  alpha:float ->
  epsilon:float ->
  t
(** Full initial survey: O(n · ball).  [radius] defaults to 2 (must be
    >= 1); threshold is [alpha *. epsilon] exactly as in
    {!Faultnet.Prune}.  [alive] is copied — the certificate owns its
    mask and callers mutate theirs freely.

    [max_dirty_frac] (default 1.0 = never) is the overload-shedding
    threshold: a batch whose dirty region exceeds this fraction of the
    universe is applied to the mask but its candidate refresh is
    deferred — {!result} then serves the pinned pre-overload cascade
    ({!degraded} is true) until the next under-threshold batch or
    {!refresh} performs the full rebuild.  The deferred state is a
    pure function of the accepted batch history, so replaying the same
    batches reproduces the same (stale) answers bit for bit. *)

val universe : t -> int
val radius : t -> int
val threshold : t -> float

val alive : t -> Bitset.t
(** Copy of the current mask. *)

val alive_count : t -> int

val recomputed : t -> int
(** Ball surveys performed since creation (initial survey included) —
    the work counter behind the engine's stats. *)

val dirty_peak : t -> int
(** Largest dirty region any single batch produced. *)

val last_dirty : t -> int
(** Dirty-region size of the most recent batch. *)

val apply : t -> Event.t list -> unit
(** Apply a normalized batch (see
    {!Fn_faults.Churn.normalize_batch}; this module trusts its
    caller): flip aliveness, then either re-survey the dirty region or
    — when the region exceeds [max_dirty_frac] — shed the refresh and
    enter deferred mode (see {!create}).  An empty batch is a no-op. *)

val result : t -> Faultnet.Prune.result
(** The Prune cascade over the current mask, cached until the next
    {!apply} — except in deferred mode, where it is the pinned
    pre-overload cascade (stale by design; check {!degraded}).  Treat
    as read-only — the cache shares structure across calls. *)

val set_result : t -> Faultnet.Prune.result -> unit
(** Replace the cached cascade — the audit's reconciliation hook. *)

val degraded : t -> bool
(** In deferred mode: {!result} serves a stale pinned cascade. *)

val shed : t -> int
(** Batches applied with their candidate refresh deferred. *)

val refresh : t -> unit
(** Rebuild every candidate against the current mask and leave
    deferred mode: the scheduled full recompute behind overload
    shedding and the quarantine rebuild.  O(n · ball), like
    {!create}. *)

val scratch_finder : ?radius:int -> Gview.t -> Faultnet.Low_expansion.t
(** The ascending-scan radius-bounded ball finder, as a Prune oracle. *)

val scratch :
  ?radius:int ->
  ?obs:Fn_obs.Sink.t ->
  Gview.t ->
  alive:Bitset.t ->
  alpha:float ->
  epsilon:float ->
  Faultnet.Prune.result
(** From-scratch reference: [Prune.run_v] with {!scratch_finder}.
    {!result} must equal this on the same mask. *)
