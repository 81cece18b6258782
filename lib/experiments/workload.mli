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
  resilience : Fn_resilience.Policy.t;
      (** supervision policy for {!supervised} / {!trials} call sites;
          the default is inert (no deadline, no chaos) *)
  journal : Fn_resilience.Journal.t option;
      (** checkpoint journal; [Some _] makes {!trials} (with a codec)
          and [Registry.run_entry] record and replay completed work *)
  online : bool;
      (** churn experiments (E9, E14) maintain their survivor
          certificates incrementally via {!Fn_online.Engine} instead
          of re-running Prune per snapshot; off by default — the
          default path stays byte-identical *)
}
(** The single argument every experiment's [run] takes (the old
    [?quick ?seed] optional pair, made explicit and extensible). *)

val default : config
(** [{quick = false; seed = 0; domains = None; obs = Sink.null;
    resilience = Fn_resilience.Policy.default; journal = None;
    online = false}] *)

val config :
  ?quick:bool ->
  ?seed:int ->
  ?domains:int ->
  ?obs:Fn_obs.Sink.t ->
  ?resilience:Fn_resilience.Policy.t ->
  ?journal:Fn_resilience.Journal.t ->
  ?online:bool ->
  unit ->
  config
(** Keyword constructor over {!default}. *)

val supervised : config -> scope:string -> rng:Rng.t -> (unit -> 'a) -> 'a
(** Run one unit of experiment work under the config's resilience
    policy: chaos injection, per-attempt deadline, bounded
    deterministic retry.  [rng] is the stream the closure reads; it is
    snapshotted and rolled back around failed attempts, so a retried
    unit reproduces exactly what an undisturbed run computes.

    @raise Fn_resilience.Failure.Supervision_failed when the policy is
    exhausted. *)

val trials :
  ?codec:'a Fn_resilience.Journal.codec ->
  config ->
  scope:string ->
  rng:Rng.t ->
  int ->
  (Rng.t -> 'a) ->
  'a array
(** Supervised, crash-isolated parallel trials over pre-split
    generators (see {!Fn_resilience.Supervisor.trials}); results are
    independent of [cfg.domains].  When both [cfg.journal] and [codec]
    are present, completed trials are checkpointed and replayed on
    resume. *)

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
