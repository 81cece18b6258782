open Fn_graph
open Fn_prng

(** Shared run configuration, workload builders and measurement
    helpers for E1-E14. *)

type config = {
  quick : bool;  (** shrink sizes / trial counts for CI *)
  seed : int;  (** root seed; every experiment derives its RNG from it *)
  domains : int option;
      (** parallelism cap for {!Fn_parallel.Par} call sites; no table
          depends on it *)
  obs : Fn_obs.Sink.t;  (** observability sink; {!Fn_obs.Sink.null} = off *)
  journal : Fn_resilience.Journal.t option;
      (** checkpoint journal; [Some _] makes [Registry.run_entry]
          record each finished experiment's outcome and replay it on
          resume *)
}
(** The single argument every experiment's [run] takes (the old
    [?quick ?seed] optional pair, made explicit and extensible). *)

val config :
  ?quick:bool ->
  ?seed:int ->
  ?domains:int ->
  ?obs:Fn_obs.Sink.t ->
  ?journal:Fn_resilience.Journal.t ->
  unit ->
  config
(** Keyword constructor; every field defaults to off, seed 0. *)

val expander : Rng.t -> n:int -> d:int -> Graph.t
(** Connected random d-regular graph — the stand-in for the paper's
    expander family G(n). *)

val gamma_of_alive : Graph.t -> Bitset.t -> float
(** Largest alive component size / original node count. *)

val node_expansion_estimate :
  ?obs:Fn_obs.Sink.t -> ?domains:int -> Rng.t -> ?alive:Bitset.t -> Graph.t -> float
(** Portfolio upper-bound estimate (see {!Fn_expansion.Estimate}).
    [domains] only sizes the estimator's worker pools: the value is
    the same at every domain count. *)

val edge_expansion_estimate :
  ?obs:Fn_obs.Sink.t -> ?domains:int -> Rng.t -> ?alive:Bitset.t -> Graph.t -> float

val mean_of : float list -> float

val bool_cell : bool -> string
(** "yes" / "NO" for table cells. *)
