(** Named metrics — counters, gauges and histograms in a registry.

    Instruments are get-or-create by name: calling {!counter} twice
    with the same name (and registry) returns the same instrument, so
    library code can look its metrics up at use sites without plumbing
    handles around.  All updates are thread-safe; counters and gauges
    are lock-free ([Atomic]), histograms take a per-instrument mutex. *)

type registry

val create : unit -> registry

type counter

type gauge

type histogram

val counter : ?registry:registry -> string -> counter
(** Get or create.  @raise Invalid_argument if [name] already names a
    different kind of instrument. *)

val gauge : ?registry:registry -> string -> gauge

val histogram : ?registry:registry -> ?buckets:float array -> string -> histogram
(** [buckets] are inclusive upper bounds, strictly increasing (an
    overflow bucket is added implicitly); ignored if the histogram
    already exists.  Defaults to decades from 1e-6 to 100. *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

val set : gauge -> float -> unit

val gauge_value : gauge -> float

val observe : histogram -> float -> unit

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

val histogram_mean : histogram -> float
(** [0.] when empty. *)

val histogram_min : histogram -> float
(** [0.] when empty. *)

val histogram_max : histogram -> float
(** [0.] when empty. *)

val report_text : ?registry:registry -> unit -> string
(** One aligned line per instrument, name-sorted. *)
