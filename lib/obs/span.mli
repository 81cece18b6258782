(** Nestable tracing spans over a {!Sink}.

    A span is an [enter]/[exit] event pair sharing an id; nesting is
    implicit — the innermost open span on the current domain becomes
    the parent of whatever is opened or emitted next.  On the null
    sink every operation is a no-op that reads no clock and allocates
    nothing (callers should still guard field-list construction with
    {!Sink.enabled}). *)

type t

val null : t
(** The span returned by {!enter} on a disabled sink; {!exit} on it is
    a no-op. *)

val enter : ?fields:(string * Sink.value) list -> Sink.t -> string -> t
(** Open a span and emit its [Enter] event.  The span becomes the
    current parent on this domain until {!exit}. *)

val exit : ?fields:(string * Sink.value) list -> t -> unit
(** Close the span and emit its [Exit] event; [fields] carry results
    (e.g. iteration counts) known only at the end. *)

val instant : ?fields:(string * Sink.value) list -> Sink.t -> string -> unit
(** Emit a point event parented to the innermost open span. *)
