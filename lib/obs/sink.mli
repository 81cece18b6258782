(** Pluggable event sinks — the only legal way for library code to
    report progress or telemetry.

    Libraries never print (the [no-print-in-lib] lint rule); instead
    they accept a sink (default {!null}) and emit structured events
    through it.  The null sink is a constant: checking {!enabled}
    before building an event makes disabled instrumentation free of
    clock reads and allocation. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type kind =
  | Enter  (** a span opened *)
  | Exit  (** a span closed *)
  | Instant  (** a point event *)

type event = {
  ts_ns : int;  (** {!Clock.now_ns} at emission *)
  kind : kind;
  name : string;  (** dotted event name, e.g. ["prune.round"] *)
  id : int;  (** span id; [-1] for instants *)
  parent : int;  (** enclosing span id; [-1] for none *)
  fields : (string * value) list;
}

type t

val null : t
(** Drops everything; {!enabled} is [false].  The default for every
    instrumented API. *)

val enabled : t -> bool
(** [false] only for {!null}.  Instrumentation must guard event
    construction (and clock reads) with this. *)

val next_id : t -> int
(** Fresh span id (process-unique per sink); [-1] on the null sink. *)

val emit : t -> event -> unit
(** Deliver one event.  Thread-safe on every built-in sink. *)

val close : t -> (unit, string) result
(** Flush and release sink resources (closes the channel of
    {!jsonl_file}).  [Error] names a trace file that a write or the
    close failed on (a full disk).  Always [Ok] on {!null}, {!discard}
    and {!memory}. *)

val jsonl_file : string -> t
(** Opens (truncates) [path] and writes JSONL; {!close} closes it.
    Raises [Sys_error] when [path] cannot be opened.  A write that
    fails later never raises: it stops the trace, and {!close} returns
    the failure.  Line schema:
    [{"ts":<ns>,"kind":"enter"|"exit"|"event","name":...,"id":...,
      "parent":<id or null>,"fields":{...}}] *)

val of_flags : trace:string option -> metrics:bool -> (t, string) result
(** The sink behind every binary's [--trace FILE] and [--metrics]
    flags: a {!jsonl_file} on FILE, else {!discard} when [metrics]
    alone is set (metrics without a trace), else {!null}.  [Error]
    carries a one-line message for a FILE that cannot be opened, so a
    binary refuses it before doing any work. *)

val discard : unit -> t
(** An enabled sink that writes nothing: turns instrumentation (and
    the metrics it records) on without producing a trace — used by the
    [--metrics]-without-[--trace] path in the binaries. *)

val memory : unit -> t * (unit -> event list)
(** Collecting sink for tests: returns the sink and a function
    yielding the events emitted so far, in order. *)
