(** The timing loop: warmup, adaptive batch sizing, sample collection.

    All clock reads go through {!Fn_obs.Clock} (monotone, integer
    nanoseconds) — the [no-raw-timing] lint rule holds in [lib/bench]
    exactly as everywhere else, so benchmark numbers and observability
    spans share one clock.  Allocation is tracked with
    [Gc.allocated_bytes] around the whole sampling phase. *)

type options = {
  warmup_ns : int;  (** time spent running the kernel before sampling *)
  target_batch_ns : int;
      (** aimed duration of one timed batch; fast kernels are looped
          so that a batch is long enough for the clock to resolve *)
  min_runs : int;  (** lower bound on collected samples *)
  max_runs : int;  (** upper bound on collected samples *)
  budget_ns : int;  (** total sampling budget for one kernel *)
}

val default : options
(** ~1 s of sampling per kernel, 10 ms batches, 5..40 samples. *)

val quick : options
(** ~0.2 s of sampling per kernel — for CI and iteration. *)

type samples = {
  runs : int;  (** number of timed batches *)
  batch : int;  (** kernel iterations per batch *)
  times_ns : float array;  (** per-iteration time of each batch, ns *)
  bytes_per_run : float;  (** allocated bytes per kernel iteration *)
}

val run : options -> (unit -> unit) -> samples
(** [run opts f] warms [f] up, calibrates a batch size so one batch
    lasts about [target_batch_ns], then times batches until the
    budget or [max_runs] is reached.  Each recorded sample is
    batch-normalised (total batch time / batch). *)
