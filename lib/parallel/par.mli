(** Minimal multicore helpers over OCaml 5 [Domain].

    The workloads in this repository are embarrassingly parallel
    Monte-Carlo trials, so all we need is a deterministic fork-join
    map.  Determinism matters: results must not depend on how the
    runtime schedules domains, so randomized jobs receive
    pre-{!Fn_prng.Rng.split} generators indexed by job number.

    {2 The [?domains] contract, and how to stay inside it}

    Every entry point here promises one rule: no result depends on
    [domains].  Every domain count, 1 included, and every schedule
    returns the sequential path's bytes.  That holds only if the
    forked closure is a pure function of its input — the scope-aware
    lint tier checks this mechanically.  The blessed patterns:

    - {b State}: return values and combine after the join.  A closure
      that mutates a captured [ref]/array/[Hashtbl] races and trips
      [par-capture-mutation]; closure-local state, [Atomic], and
      Mutex-held sections are recognized as safe, as are disjoint
      per-worker slot writes under {!Pool.run} ([slots.(w) <- ...]).
    - {b Randomness}: never draw from a captured generator (that trips
      [rng-unsplit-in-par]).  Pre-split one stream per index with
      {!Fn_prng.Rng.split_n} before the fork and use [rngs.(i)] — or
      let {!trials} do exactly that for you.
    - {b Float reduction}: float [+.] is non-associative, so
      accumulating across domains makes the sum schedule-dependent
      ([par-float-reduce]).  {!map} to per-trial floats, then reduce
      sequentially: [Array.fold_left ( +. ) 0.0 parts]. *)

val default_domains : unit -> int
(** Number of domains to use by default: the runtime's recommended
    count, clamped to [1, 8].  Override per call with [?domains]. *)

val max_domains : int
(** 127: the most domains a [?domains] value may ask for.  The OCaml
    5.1 runtime holds at most 128 domains, the caller's included, and
    {!map} and {!Pool.create} spawn up to [domains - 1] more, so a
    binary refuses a [--domains] outside [1, max_domains] when it
    parses the flag. *)

exception Job_failed of { index : int; exn : exn }
(** Raised on the joining domain when a job raised: [index] is the
    input position whose job failed and [exn] the original exception
    (re-raised with the worker's backtrace).  When jobs fail in
    several chunks, the lowest failing index wins deterministically.
    The sequential fallback raises the same exception, so callers see
    one failure shape whatever the parallelism. *)

val map : ?obs:Fn_obs.Sink.t -> ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f a] applies [f] to every element, distributing contiguous
    chunks over domains.  Result order matches input order.  [f] must
    not rely on shared mutable state.  Falls back to sequential
    execution when [domains <= 1] or the array is small.

    With an enabled [obs] sink each worker emits a ["par.domain"]
    instant (chunk bounds and wall seconds) and the fork-join sets the
    [par.domains] / [par.max_seconds] / [par.imbalance] gauges in the
    default metrics registry; instrumentation never changes results.

    A job exception does not kill the fork-join silently: every
    spawned domain is still joined, then {!Job_failed} is raised with
    the failing job's index. *)

module Pool : sig
  (** Long-lived worker domains for iterative parallel-for kernels.

      {!map} spawns fresh domains per call — fine for Monte-Carlo
      trials, ruinous inside an iteration that runs the same small
      parallel region a thousand times (the spectral matvec).  A pool
      spawns [domains - 1] workers once; each {!run} republishes a
      job to them and blocks until all are done.  Idle workers block
      on a condition variable rather than spin, so oversubscription
      (domains > cores) degrades gracefully.

      Determinism: {!run} imposes no ordering between workers, so
      jobs must write disjoint state (e.g. disjoint index ranges of a
      shared array).  Under that discipline results are identical for
      every pool size, including 1. *)

  type t

  val create : ?domains:int -> unit -> t
  (** [create ~domains ()] spawns [domains - 1] worker domains
      ([domains] defaults to {!default_domains}; clamped to >= 1).
      A pool of size 1 spawns nothing and {!run} executes inline. *)

  val size : t -> int
  (** Total workers including the calling domain (= [domains]). *)

  val run : t -> (int -> unit) -> unit
  (** [run t f] executes [f w] on every worker [w] in
      [0 .. size - 1] ([f 0] on the calling domain) and returns when
      all are finished.  A job exception is re-raised as
      {!Job_failed} with the lowest failing worker index; the barrier
      still completes first. *)

  val shutdown : t -> unit
  (** Stop and join the workers.  Idempotent.  Using {!run} after
      [shutdown] executes only worker 0 inline. *)

  val with_pool : ?domains:int -> (t -> 'a) -> 'a
  (** Scoped {!create} / {!shutdown} (shutdown also on raise). *)
end

val trials :
  ?obs:Fn_obs.Sink.t ->
  ?domains:int ->
  rng:Fn_prng.Rng.t ->
  int ->
  (Fn_prng.Rng.t -> 'b) ->
  'b array
(** [trials ~rng n job] runs [job] [n] times, each with an independent
    generator split from [rng].  The split happens sequentially before
    any domain is spawned, so the result is identical whatever the
    parallelism. *)
