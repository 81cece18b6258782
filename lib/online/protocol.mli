(** The faultnetd line protocol, as pure, total parse/render functions.

    One command per line; replies are single lines starting with [ok]
    or [err].  Blank lines and [#] comments are ignored — scripted
    sessions (the [@online-smoke] script) are plain text files.

    {v
    alive? <v>          ok true|false
    certificate? <v>    ok true|false [degraded]  (is v a Prune survivor?)
    alpha?              ok <hex float> [degraded] (%h — byte-exact)
    apply f<v> r<v> ... ok applied=<k> alive=<a>   or  err <code> <detail>
    stats?              ok events=... batches=... ...
    audit!              ok kept=... alpha=... faults=<k> quarantines=<q>
    state?              ok digest=<fnv64 hex>
    quit                ok bye
    v}

    Parsing is {e total}: no input line — hostile, truncated, binary,
    oversized — raises; every malformed line maps to a typed {!error}
    that the server renders as [err <code> <detail>].  Node ids are
    validated against the engine's universe at parse time, so commands
    carrying out-of-range or negative ids are refused uniformly with
    [bad-node] before they reach the engine.  The error codes the
    server can emit:

    - [bad-command]    — unknown verb
    - [bad-node]       — node id unparsable, negative, or >= n (an id
                         has one spelling, [string_of_int]'s: no
                         [0x12], [+3], [0b11] or leading zeros)
    - [bad-event]      — apply token that is not f<id>/r<id> with the
                         id spelled that way ({!Event.of_token})
    - [line-too-long]  — request over [limits.max_line_bytes]
    - [batch-too-large]— apply with more than [limits.max_batch_events]
    - [rejected]       — well-formed batch refused by churn validation
    - [deadline]       — query exceeded the request deadline (post-hoc) *)

type command =
  | Alive of int
  | Certificate of int
  | Alpha
  | Apply of Event.t list
  | Stats
  | Audit
  | State
  | Quit

type error =
  | Bad_command of string
  | Bad_node of string
  | Bad_event of string
  | Line_too_long of int  (** actual byte length *)
  | Batch_too_large of int  (** actual event count *)

type limits = {
  max_line_bytes : int;  (** refuse longer request lines outright *)
  max_batch_events : int;  (** refuse larger apply batches outright *)
}

val default_limits : limits
(** 64 KiB lines, 4096 events per batch. *)

val error_code : error -> string
(** The stable machine-readable token after [err]. *)

val error_to_string : error -> string
(** {!error_code}, a space and the human-readable detail — the reply
    tail after [err ]. *)

val parse : ?limits:limits -> n:int -> string -> (command option, error) result
(** [Ok None] for blank/comment lines.  Total: never raises, for any
    byte string.  [n] is the engine universe every node id is checked
    against.  [parse ~n (render c) = Ok (Some c)] for every command
    whose ids are in range. *)

val render : command -> string
(** Canonical wire form. *)

val float_hex : float -> string
(** ["%h"] — the byte-exact rendering every float reply uses. *)
