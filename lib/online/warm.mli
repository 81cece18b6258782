open Fn_graph

(** Cached expansion estimates with spectral warm starts.

    The engine answers [alpha?] with the node expansion of the current
    Prune survivor set.  Two modes:

    - {!Exact} (default): every estimate is history-free — a fresh
      seed-derived rng, cold spectral start — so the value depends
      only on (view, kept mask, seed).  This is what the from-scratch
      differential reference computes, so incremental and scratch
      agree byte for byte; a small mask-keyed memo makes churn that
      revisits a recent survivor set free.
    - {!Warm}: the previous estimate's Fiedler pair seeds the next
      spectral solve when {e both} vectors' residuals on the new mask
      stay under [residual_tol] (cold fallback otherwise — a stale
      second vector must not ride through on the first one's health).
      Warm starts are method-aware: the cached pair seeds whichever
      backend {!Fn_expansion.Spectral.Method.select} picks.  Faster
      under drift but history-dependent — the periodic audit
      reconciles it back to the cold reference and counts
      divergences.

    Implicit views keep the deterministic ball-witness portfolio in
    both modes. *)

type mode = Exact | Warm

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

type t

val create :
  ?mode:mode ->
  ?residual_tol:float ->
  ?domains:int ->
  int ->
  t
(** [create seed].  Defaults: {!Exact}, [residual_tol] 0.25. *)

val mode : t -> mode

val computes : t -> int
(** Full estimates performed (cache hits excluded). *)

val warm_hits : t -> int
val cold_falls : t -> int
(** Warm-mode starts accepted / rejected by the residual gate. *)

val reference :
  seed:int ->
  ?domains:int ->
  Gview.t ->
  kept:Bitset.t ->
  float
(** The history-free alpha of a mask — node expansion estimate with a
    fresh rng derived from [seed].  Fewer than 2 survivors yield 0;
    an implicit view with no ball witness yields [infinity].  The
    audit and the differential tests call this directly. *)

val query : t -> Gview.t -> kept:Bitset.t -> float
(** Alpha for [kept], cached against the most recent mask (and the
    memo, in {!Exact} mode). *)

val force : t -> kept:Bitset.t -> float -> unit
(** Seed the cache with an externally computed reference value for
    [kept] and drop the warm pair — what the audit does after it has
    already paid for the scratch estimate. *)

val reconcile : t -> Gview.t -> kept:Bitset.t -> float
(** Cold recompute: drop the warm pair, estimate [kept] from scratch,
    re-seed the cache with the result.  The audit's repair hook. *)
