(** Lint engine: runs rules over sources, applying the allowlist and
    [(* lint: allow <rule> *)] suppression comments.

    A suppression comment silences the named rules on the comment's own
    line(s) and on the line immediately following it, so both trailing
    and preceding placement work. *)

type suppression = { rules : string list; first_line : int; last_line : int }

val parse_suppression : Token.t -> suppression option

val lint_string :
  ?rules:Rule.t list -> path:string -> ?mli_exists:bool -> string -> Rule.finding list
(** Lint in-memory source. [path] is the repo-relative path used for
    allowlist matching and reporting; [mli_exists] feeds the
    [mli-required] rule (pass [Some false] to simulate a missing
    interface). Findings are sorted by (file, line, col, rule). *)

val lint_file : ?rules:Rule.t list -> string -> Rule.finding list
(** Read and lint a file. The path doubles as the repo-relative path,
    so call this from the repository root. *)

val errors : Rule.finding list -> Rule.finding list
(** Only the [Error]-severity findings. *)

val read_file : string -> string

val collect : string list -> string list
(** [.ml]/[.mli] files under the given roots (skipping [_build]-style
    and hidden directories), sorted; missing roots are ignored.  Shared
    by [bin/lint] and the [lint_repo] bench kernel. *)
