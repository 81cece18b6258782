(** The observability layer's clocks.

    All timing in this repository must flow through this module so
    that traces, metrics and reported durations share one clock — the
    [no-raw-timing] lint rule forbids [Sys.time] / [Unix.gettimeofday]
    everywhere outside [lib/obs]. *)

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in integer nanoseconds: non-decreasing, with
    nanosecond resolution, and unaffected by steps of the system's
    wall clock.  Its zero is arbitrary (typically boot), so only
    differences of readings mean anything.  Safe to call from any
    domain; it allocates nothing. *)

val ns_to_s : int -> float
(** Nanoseconds to seconds. *)

val elapsed_s : since_ns:int -> float
(** Seconds elapsed since an earlier {!now_ns} reading. *)

val wall_stamp_ns : unit -> int
(** Wall-clock time since the Unix epoch, in nanoseconds (about 1 us
    resolution).  A stamp for records such as a baseline's creation
    time, not a duration source: the wall clock can step backwards. *)
