(** Aligned ASCII tables and CSV output for experiment results. *)

type t

val create : string list -> t
(** [create headers] starts a table. *)

val add_row : t -> string list -> unit
(** Must match the header arity. *)

val add_float_row : ?precision:int -> t -> string -> float list -> unit
(** Convenience: a leading label cell, then floats rendered with the
    given precision (default 4).  Label + floats must match the
    header arity. *)

val headers : t -> string list

val rows : t -> string list list
(** Data rows (headers excluded) in insertion order. *)

val to_string : t -> string
(** Aligned plain text, ready for a terminal or a log. *)

val to_csv : t -> string
