(** Deterministic, grammar-aware fuzzing of the faultnetd protocol.

    The generator mixes valid commands, near-valid adversarial lines
    (out-of-range ids, mangled verbs, truncations, byte flips), binary
    garbage, and limit-busting lines and batches — all drawn from a
    seeded {!Fn_prng.Rng}, so every run is reproducible and a failing
    seed is a regression test.

    {!run} drives an in-process {!Server.handle} session and checks
    the two crash-only obligations at once: no input line may raise,
    and the {e replayable} engine state (fault mask, accepted
    event/batch counters) may change only on [ok] replies. *)

type report = {
  lines : int;
  ok : int;  (** replies starting with [ok] *)
  err : int;  (** replies starting with [err] *)
  ignored : int;  (** blank/comment lines *)
  exceptions : (string * string) list;
      (** (input line, exception) — any entry is a server bug *)
  violations : string list;
      (** input lines whose non-[ok] reply moved the replayable state
          — any entry breaks the state-changes-only-on-ok invariant *)
}

val run :
  ?limits:Protocol.limits ->
  Engine.t ->
  seed:int ->
  count:int ->
  report
(** Feed [count] generated lines to an in-process session on
    [engine], catching everything.  Pure in (engine config, seed,
    count). *)

val clean : report -> bool
(** No exceptions and no invariant violations. *)

val replay :
  ?limits:Protocol.limits ->
  Engine.t ->
  string list ->
  (string * string) list
(** Replay a fixed corpus (e.g. [test/fixtures/fuzz/corpus.txt])
    verbatim; returns the (line, exception) pairs — must be []. *)
