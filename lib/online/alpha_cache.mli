open Fn_graph

(** Cached survivor expansion.

    The engine answers [alpha?] with the node expansion of the current
    Prune survivor set.  Every estimate is history-free — a fresh
    seed-derived rng and a cold spectral start — so the value depends
    only on (view, kept mask, seed).  This is what the from-scratch
    differential reference computes, so incremental and scratch agree
    byte for byte; a small mask-keyed memo makes churn that revisits a
    recent survivor set free.

    The estimate is {!Fn_expansion.Estimate.run_v}, one portfolio on
    either {!Gview.t} arm: the full portfolio up to
    {!Fn_expansion.Estimate.spectral_node_cap} survivors, the ball
    witness alone above it.  Up to the cap it depends on the topology,
    not the storage: an implicit view gives its materialized twin's
    bits.  Above it the ball witness follows the view's neighbor order
    (the order rule in {!Gview}). *)

type t

val create : ?domains:int -> int -> t
(** [create seed]: an empty cache whose estimates derive their rng
    from [seed]. *)

val computes : t -> int
(** Full estimates performed (cache hits excluded). *)

val reference :
  seed:int ->
  ?domains:int ->
  Gview.t ->
  kept:Bitset.t ->
  float
(** The history-free alpha of a mask — node expansion estimate with a
    fresh rng derived from [seed].  Fewer than 2 survivors yield 0.
    The audit and the differential tests call this directly. *)

val query : t -> Gview.t -> kept:Bitset.t -> float
(** {!reference} for [kept], answered from the most recent mask or
    the memo when either holds it. *)

val force : t -> kept:Bitset.t -> float -> unit
(** Seed the cache with an externally computed {!reference} value for
    [kept] — what the audit does after it has already paid for the
    scratch estimate. *)
