(** Parallel-region and mutability analysis over the token stream.

    Pairs with {!Scope}: this module finds the parallel entry points the
    repo blesses ([Par.map]/[init]/[trials], [Par.Pool.run],
    [Domain.spawn]), resolves the closure literals passed to them, and
    classifies the mutations a token region performs — the raw
    material for the scope-aware rules in {!Rules_par} and
    {!Rules_order}. *)

type entry = {
  at : int;  (** token index of the function ident, e.g. [map] in [Par.map] *)
  path : string;  (** display path, e.g. ["Par.map"] *)
  blessed_indexed : bool;
      (** [Pool.run] jobs may write disjoint indexed slots by contract
          (see [Fn_parallel.Par.Pool]); fork-join closures may not *)
}

val entries : Token.t array -> entry list
(** All parallel entry points in the stream, in token order. *)

val arg_closures : Token.t array -> Scope.t -> int -> Scope.t list
(** [arg_closures code root at] is the list of closure scopes passed as
    literal [(fun ... -> ...)] arguments to the call at token [at].
    Closures reached through a named function or partial application
    are not resolved — the analysis is honest about only seeing
    literals. *)

type mutation = {
  target : string;  (** base ident of the mutated value; [""] if unresolved *)
  at : int;  (** token index of the mutating operator or module ident *)
  desc : string;  (** for messages: [":="], ["<-"], ["Hashtbl.replace"], ... *)
  indexed : bool;
      (** an element write ([x.(i) <- v], [Array.set], [Bytes.fill], ...)
          — the shape the Pool disjoint-write contract blesses *)
  float_acc : bool;  (** right-hand side uses [+.]/[-.]/[*.]/[/.] *)
  cons_acc : bool;  (** right-hand side uses [::]/[@]/[^] *)
  guarded : bool;  (** a [Mutex.lock]/[Mutex.protect]/[with_lock] appears
                       earlier in the scanned region *)
}

val float_op : Token.t array -> int -> bool
(** Is token [i] a float arithmetic operator?  [+.]/[-.]/[*.]/[/.] lex
    as an [Op] followed by a [Punct "."], so this checks the pair. *)

val mutations : Token.t array -> first:int -> last:int -> mutation list
(** Mutations performed in token range [\[first, last)].  [Atomic.*]
    operations are never reported — atomics are the blessed way to
    share mutable state across domains. *)

val order_sensitive_sink : Token.t array -> first:int -> last:int -> int option
(** Token index of the first output-ordering-sensitive operation in the
    range: an append to a [Buffer]/[Queue]/[Stack], or a direct
    [print]/[Printf]/[Format] call.  Used by hashtbl-order-dependence,
    where element order — not thread-safety — is the concern. *)
