(** Online churn events: the {!Fn_faults.Churn.event} type plus the
    wire and journal codecs the serving layer speaks.

    The type equation re-exports the constructors, so online callers
    build [Fault v] / [Repair v] directly and every batch handed to
    the engine is validated against the live fault mask by
    {!Fn_faults.Churn.normalize_batch} — fault-of-already-faulty and
    repair-of-alive are typed errors, never silent no-ops. *)

type t = Fn_faults.Churn.event =
  | Fault of int
  | Repair of int

val to_token : t -> string
(** Wire token: [f12] / [r12] — what [apply f12 r3] lines and journal
    rows carry. *)

val of_token : string -> t option
(** Inverse of {!to_token}: [f] or [r], then the id as [string_of_int]
    prints it — an optional minus sign and decimal digits without a
    leading zero.  Every other spelling is [None]: OCaml literal forms
    ([f0x10], [f1_7], [f0b11], [f+9]), leading zeros ([f007]), [f-0]
    and ids outside the native int range.  A negative id decodes; the
    protocol refuses it as out of range.  This is the one decoder of a
    node id on the wire: {!Protocol} reads query arguments through it
    too. *)

val batch_to_json : t list -> Fn_obs.Jsonx.t
(** Journal row payload: a JSON array of wire tokens.  Exact
    round-trip with {!batch_of_json} — resume replays the identical
    batch. *)

val batch_of_json : Fn_obs.Jsonx.t -> t list option
