(** Append-only JSONL checkpoint journal for resumable runs.

    One line per completed unit of work: trial rows
    ([{"kind":"trial","scope":...,"index":...,"value":...}]) written
    by [Fn_online.Server] (one per accepted faultnetd batch), and
    outcome rows ([{"kind":"outcome","id":"E5","value":{...}}])
    written by [Fn_experiments.Registry.run_entry] when an experiment
    finishes.
    Every record is flushed before the call returns, so a killed
    process loses at most the line it was writing — and {!open_}
    skips a torn final line instead of refusing the file.

    The first line is a meta header binding the journal to the run
    parameters that determine results (seed, quick).  Re-opening with
    different binding meta is an error: resuming a seed-1 sweep into a
    seed-2 journal would silently splice two different experiments. *)

type t

val open_ : path:string -> meta:(string * Fn_obs.Jsonx.t) list -> (t, string) result
(** Open (creating or resuming) the journal at [path].  On an
    existing journal, every well-formed line is loaded for
    {!find_trial} / {!find_outcome} replay and appending continues
    after it; the stored meta header must agree with [meta] on every
    given key.  [Error] carries a human-readable reason (meta
    mismatch, unreadable header). *)

val check_meta :
  requested:(string * Fn_obs.Jsonx.t) list -> Fn_obs.Jsonx.t -> (unit, string) result
(** The binding discipline by itself: does [stored] (a header object)
    agree with [requested] on every requested key?  The [Error] lists
    {e every} divergent key with both the stored and the requested
    value.  Shared with {!Snapshot}, whose files carry the same
    header. *)

val record_trial : t -> scope:string -> index:int -> Fn_obs.Jsonx.t -> unit
(** Append one completed trial.  Thread-safe; flushes. *)

val find_trial : t -> scope:string -> index:int -> Fn_obs.Jsonx.t option

val compact :
  ?on_tmp_written:(unit -> unit) ->
  t ->
  scope:string ->
  upto:int ->
  snapshot:Fn_obs.Jsonx.t ->
  (unit, string) result
(** Rewrite the journal as [meta header; snapshot; suffix]: trials of
    [scope] with index below [upto] are replaced by the single
    [snapshot] value (the caller's own encoding of the state they add
    up to), so recovery cost becomes O(snapshot + suffix) instead of
    O(history).  The rewrite is staged in {!compact_tmp_path} and
    installed by one atomic rename: a crash before the rename leaves
    the old journal governing (the staging file is discarded by the
    next {!open_}), a crash after it leaves the compacted one —
    never a torn hybrid.  Appending continues on the new file.

    [on_tmp_written] is a test-only fault-injection hook that runs
    between the staged write and the rename; raising from it aborts
    the compaction at exactly the point a SIGKILL would. *)

val find_snapshot : t -> scope:string -> (int * Fn_obs.Jsonx.t) option
(** The compaction snapshot for [scope], as [(upto, value)]: [value]
    stands for trials [0 .. upto-1], which are no longer stored. *)

val compact_tmp_path : string -> string
(** Where {!compact} stages its rewrite for journal [path]; exposed so
    tests can plant or inspect an aborted staging file. *)

val record_outcome : t -> id:string -> Fn_obs.Jsonx.t -> unit
(** Append one completed experiment outcome.  Thread-safe; flushes. *)

val find_outcome : t -> id:string -> Fn_obs.Jsonx.t option

val recovered : t -> int
(** Records successfully loaded from a pre-existing file at open time. *)

val torn : t -> int
(** Malformed lines skipped at open time (normally 0 or, after a kill
    mid-write, 1). *)

val close : t -> unit
