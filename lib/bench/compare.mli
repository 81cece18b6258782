(** Baseline comparison — the machine-checkable regression gate.

    A kernel is [Unchanged] when its median moved by at most the
    relative threshold {e or} its bootstrap CI overlaps the
    baseline's (both guards must fire for a verdict to flip, so
    within-noise jitter on an identical re-run classifies as
    unchanged).  Otherwise the sign of the move decides
    [Regressed] / [Improved].

    The gate ([--check]) is a {e pinned-baseline} discipline: any
    significant move fails it, in both directions.  A regression
    fails because the code got slower; a significant improvement
    fails because the committed baseline no longer describes the
    code — re-record it (run with [--json]) and commit the refreshed
    file.  An unexplained "improvement" is also how a kernel that
    silently stopped doing its work shows up. *)

type verdict = Improved | Regressed | Unchanged

type entry = {
  name : string;
  verdict : verdict;
  base_median_ns : float;
  cur_median_ns : float;
  delta_pct : float;  (** 100 * (cur - base) / base *)
  ci_separated : bool;  (** the two confidence intervals do not overlap *)
}

type t = {
  entries : entry list;  (** kernels present on both sides, baseline order *)
  missing : string list;  (** in the baseline but not in the current run *)
  added : string list;  (** in the current run but not in the baseline *)
}

val run : threshold:float -> baseline:Baseline.t -> current:Baseline.t -> t

val regressions : t -> entry list

val significant : t -> entry list
(** Entries whose verdict is not [Unchanged]. *)

val gate_passes : t -> bool
(** True when every compared kernel is [Unchanged] and no baseline
    kernel is missing from the current run. *)

val verdict_name : verdict -> string
