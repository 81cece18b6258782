(** The registered benchmark kernels: one per experiment (E1..E14,
    mirroring {!Fn_experiments.Registry.all}), plus substrate kernels
    for the algorithms the experiments lean on and the ablation pairs
    from DESIGN.md.  Inputs are built lazily and forced by each
    kernel's [prepare], so listing or filtering kernels costs
    nothing. *)

val experiments : string
(** Suite name for the per-experiment kernels ("experiments"). *)

val all : Suite.kernel list
(** Every kernel, in suite order: experiments, substrate, ablations.
    Names are unique; the per-experiment kernels are named
    [e<N>_...], one for each [lib/experiments/e*.ml] (enforced by the
    bench-completeness test in [test/test_bench.ml]). *)
