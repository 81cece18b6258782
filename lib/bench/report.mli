(** Human-readable rendering of suite results and comparisons.

    Pure string builders (on {!Fn_stats.Table}) — printing happens in
    [bench/main.ml] and the CLI, never inside the library. *)

val suite_table : string * Suite.result list -> string
(** One aligned table per suite: kernel, median, MAD, trimmed mean,
    95% CI, bytes/run, items/sec, runs x batch. *)

val compare_table : Compare.t -> string
(** Verdict table: kernel, baseline median, current median, delta %,
    CI separation, verdict; followed by missing/added kernel notes. *)

val gate_summary : threshold:float -> Compare.t -> string
(** One-line verdict for the [--check] gate. *)
