(** The [BENCH_<suite>.json] schema: serialization of one suite run,
    plus file I/O for recording and loading baselines.

    Schema (version 1), all through {!Fn_obs.Jsonx} — no third-party
    JSON dependency:

    {v
    { "schema_version": 1,
      "suite": "experiments",
      "git_rev": "<commit or \"unknown\">",
      "host": "<hostname>",
      "quick": false,
      "created_ns": 1754e15,
      "kernels": [
        { "name": "e1_prune_adversarial", "items": 1,
          "runs": 12, "batch": 4,
          "median_ns": ..., "mad_ns": ..., "trimmed_mean_ns": ...,
          "ci_low_ns": ..., "ci_high_ns": ...,
          "bytes_per_run": ..., "items_per_sec": ... }, ... ] }
    v}

    Scratch recordings land in the working directory and are
    git-ignored; reference baselines are committed under
    [bench/baselines/]. *)

type meta = {
  suite : string;
  git_rev : string;
  host : string;
  quick : bool;
  created_ns : int;
      (** wall-clock creation stamp, ns since the Unix epoch
          ({!Fn_obs.Clock.wall_stamp_ns}) *)
}

type t = { meta : meta; kernels : Suite.result list }

val of_run : suite:string -> quick:bool -> Suite.result list -> t
(** Stamp a run with the current git revision (best-effort read of
    [.git/HEAD], "unknown" outside a checkout), hostname and
    wall-clock time. *)

val to_json : t -> Fn_obs.Jsonx.t

val of_json : Fn_obs.Jsonx.t -> (t, string) result
(** Strict on structure, lenient on numbers (ints accepted for float
    fields); unknown fields are ignored so the schema can grow. *)

val save : dir:string -> t -> string
(** Write [dir/BENCH_<suite>.json] (one pretty-enough line per
    kernel) and return the path. *)

val load : string -> (t, string) result
(** Read and decode one baseline file. *)
