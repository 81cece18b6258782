open Fn_graph
open Fn_prng

(** Finders for low-expansion sets — the "∃ S_i ⊆ G_i" oracle inside
    the paper's pruning algorithms.

    The paper's algorithms are existential (they assume the oracle);
    this module realizes it: exactly on small fragments, by the
    {!Fn_expansion.Estimate} portfolio on larger ones.  A finder
    returns a witness set [S] with expansion at most the threshold
    and [|S| <= |alive|/2], or [None] when it cannot find one.  A
    [None] from the heuristic finder does not prove absence — the
    pruning loop documents the resulting one-sidedness. *)

type t = alive:Bitset.t -> Graph.t -> threshold:float -> Bitset.t option

type t_v = alive:Bitset.t -> Gview.t -> threshold:float -> Bitset.t option
(** A finder over either {!Gview.t} arm — what {!Prune.run_v} drives
    (the online engine runs Prune on implicit views). *)

val exact_limit : int
(** Fragment size up to which the exact finder is used (18). *)

val default :
  ?rng:Rng.t ->
  ?domains:int ->
  Fn_expansion.Cut.objective ->
  t
(** Portfolio finder: disconnected fragments yield a small component
    immediately; fragments of at most {!exact_limit} alive nodes are
    solved exactly; larger ones use the heuristic estimator.
    [domains] is forwarded to {!Fn_expansion.Estimate.run} (default:
    sequential, byte-reproducible). *)

val default_v :
  ?rng:Rng.t ->
  ?domains:int ->
  Fn_expansion.Cut.objective ->
  t_v
(** {!default} over views.  The CSR arm delegates to {!default}
    unchanged (byte-identical results).  On the implicit arm large
    fragments run the BFS-ball slice plus — now that the spectral
    operator is {!Gview.t}-capable — the spectral sweep
    ({!Fn_expansion.Estimate.spectral_witness}), keeping the better
    witness.  The spectral slice is skipped above 500k alive nodes
    (the Krylov basis would cost hundreds of MB); a [None] is
    correspondingly weaker evidence of high expansion there. *)

val exact : Fn_expansion.Cut.objective -> t
(** Exact only; raises [Invalid_argument] beyond {!exact_limit}. *)
