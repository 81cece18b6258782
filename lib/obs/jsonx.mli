(** Minimal JSON values: enough to write the JSONL trace format and
    the machine-readable reports, and to parse them back in tests and
    tooling.  No third-party dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering.  Non-finite floats become [null]
    (JSON has no representation for them). *)

val parse : string -> t option
(** Parse one complete JSON value; [None] on any syntax error or
    trailing garbage.  Covers standard JSON; [\uXXXX] escapes outside
    the Latin-1 range decode to ['?']. *)

val member : string -> t -> t option
(** [member key (Obj fields)] looks up a field; [None] on non-objects. *)
