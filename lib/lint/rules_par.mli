(** Scope-aware rules over parallel-region closures.

    These rules mechanically enforce the repo's [?domains] determinism
    contract (DESIGN.md): a closure passed to a parallel entry point
    ([Par.map]/[init]/[trials], [Par.Pool.run], [Domain.spawn]) must
    not smuggle shared mutable state or an unsplit RNG across the
    fork. *)

val par_capture_mutation : Rule.t
(** A parallel closure mutates a binding defined outside it without
    [Atomic]/[Mutex].  [Pool.run] jobs are allowed disjoint indexed
    writes ([slots.(w) <- ...], [Array.set], ...) per the Pool
    contract; fork-join closures are not. *)

val rng_unsplit_in_par : Rule.t
(** An [Fn_prng.Rng] handle is captured into a parallel closure instead
    of a pre-split per-index stream ([Rng.split_n] before the fork, or
    [Par.trials] which pre-splits for you).  Indexed access to a
    captured array of pre-split streams ([rngs.(i)]) is the blessed
    pattern and not flagged. *)

val par_float_reduce : Rule.t
(** A parallel closure accumulates floats in place across domains
    ([sum := !sum +. x]).  Float addition is not associative, so the
    result depends on scheduling; return per-trial floats and reduce
    after the join in index order ([Array.fold_left]). *)
