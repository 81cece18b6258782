open Fn_graph
open Fn_prng

(** Critical-probability estimation.

    The estimator finds the p at which the mean largest-component
    fraction γ(p) crosses a target level (default 0.5·γ(1)), by
    bisection over Newman-Ziff curves.  For the families in §1.1 of
    the paper this reproduces the known thresholds (experiment E8):
    K_n → 1/(n-1)·Θ(1), 2-D mesh bonds → 1/2, hypercube bonds → 1/d. *)

type mode = Site | Bond

type result = {
  p_star : float;
  level : float;  (** the γ level whose crossing defines p_star *)
  runs : int;
}

val estimate :
  ?obs:Fn_obs.Sink.t ->
  ?domains:int ->
  ?runs:int ->
  ?level:float ->
  ?tolerance:float ->
  rng:Rng.t ->
  mode ->
  Gview.t ->
  result
(** Defaults: [runs] 32 curves (shared by every probe), [level] 0.4,
    [tolerance] 1e-3 on p.  The same set of curves is evaluated at
    every probe point, so the bisection sees a monotone function.
    An enabled [obs] sink wraps the estimate in a
    ["percolation.threshold"] span with per-sweep progress instants
    from {!Newman_ziff}. *)

val gamma_curve :
  ?obs:Fn_obs.Sink.t ->
  ?domains:int ->
  ?runs:int ->
  rng:Rng.t ->
  mode ->
  Gview.t ->
  float list ->
  (float * float * float) list
(** [(p, mean γ, std γ)] at each requested probability. *)
