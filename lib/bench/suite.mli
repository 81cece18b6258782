(** Kernel registration and the suite runner.

    Mirrors {!Fn_experiments.Registry}: a kernel is a named thunk in a
    named suite (group), the full list lives in {!Kernels.all}, and
    [find] does case-insensitive lookup.  Running a kernel produces
    the robust-statistics record that gets serialized into
    [BENCH_<suite>.json] and compared against baselines. *)

type kernel = {
  name : string;  (** unique across all suites, e.g. "e6_prune2_random" *)
  suite : string;  (** group, e.g. "experiments" / "kernels" / "ablations" *)
  items : int;
      (** work items one run processes (nodes, trials, ...); feeds the
          items/sec throughput figure.  At least 1. *)
  prepare : unit -> unit;
      (** forces the kernel's prebuilt inputs; runs un-timed before
          calibration so construction cost never pollutes samples *)
  run : unit -> unit;
}

val kernel :
  ?items:int -> ?prepare:(unit -> unit) -> suite:string -> string -> (unit -> 'a) -> kernel
(** Wrap a thunk as a kernel.  The result goes through
    [Sys.opaque_identity] so the compiler cannot delete the work. *)

val suites : kernel list -> string list
(** Distinct suite names in first-registration order. *)

type stats = {
  runs : int;
  batch : int;
  median_ns : float;
  mad_ns : float;
  trimmed_mean_ns : float;
  ci_low_ns : float;  (** bootstrap 95% CI on the median *)
  ci_high_ns : float;
  bytes_per_run : float;
  items_per_sec : float;
}

type result = { name : string; items : int; stats : stats }

val run :
  ?progress:(kernel -> unit) ->
  ?filter:(string -> bool) ->
  ?seed:int ->
  Measure.options ->
  kernel list ->
  (string * result list) list
(** Run every kernel whose name passes [filter] (default: all),
    calling [progress] before each one, and group the results by
    suite in registration order.  Suites with no surviving kernel are
    dropped. *)
