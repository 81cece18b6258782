(** Scope-aware rules over iteration-order and domain-local state.

    [Hashtbl] iteration order is unspecified and varies with the hash
    seed and insertion history; results that flow into ordered sinks
    (lists built with [::], strings, buffers, float sums) must pass
    through a sort before they reach output, or byte-identity of
    experiment runs is lost. *)

val hashtbl_order_dependence : Rule.t
(** [Hashtbl.iter]/[Hashtbl.fold] whose combiner accumulates in an
    order-sensitive way ([::]/[@]/[^], float [+.], or appends to a
    [Buffer]/[Queue]/[Stack]/printer) with no sort in the same
    definition.  Commutative combiners ([max], integer counters,
    per-index array writes) are fine and not flagged. *)

val dls_outside_obs : Rule.t
(** [Domain.DLS] outside [lib/obs]: domain-local state is invisible to
    the determinism contract and to [Fn_resilience] checkpointing; the
    one blessed use is [Fn_obs.Span]'s per-domain span stack. *)

val hidden_state_outside_obs : Rule.t
(** A structure-level value binding in [lib/**.ml] whose right-hand side
    creates a [ref], [Atomic.make] or [Hashtbl.create] when the module
    initialises: hidden state shared by every caller and domain, which
    no determinism check, journal or digest can see.  Functions, and
    [fun]/[function] bodies inside a value, run per call and are not
    flagged.  The companion of {!dls_outside_obs}; the allowlisted
    files (lib/obs and the named caches) give their reasons as data. *)
