(** Scope model for scope-aware lint rules.

    {!build} turns a comment-stripped token stream ({!Token.code}) into
    a tree of scopes — the file, [struct ... end] modules,
    structure-level [let] bindings, and [fun]/[function] closures —
    each carrying the names bound inside it and the token range it
    covers.  Rules use the tree to answer the one question token rules
    cannot: is this identifier bound inside the region I am looking
    at, or captured from outside it?

    The model is deliberately approximate, in the conservative
    direction for capture analysis: binder collection over-approximates
    (pattern idents, type-annotation names and record labels may be
    collected as binders), so a name reported as {e captured} really
    has no binder anywhere in the scope's subtree.  Rules built on it
    therefore under-report rather than false-positive. *)

type kind =
  | File  (** whole compilation unit *)
  | Module of string  (** [struct ... end]; [""] when anonymous *)
  | Binding of string
      (** structure-level [let]; the range covers the right-hand side
          up to the next structure item at the same indentation *)
  | Closure  (** [fun ... ->] or [function ...] literal *)
  | Block  (** [begin]/[sig]/[object]/[do] ... [end]/[done] *)

type t = {
  kind : kind;
  first : int;  (** token index (into the code array) of the opening token *)
  mutable last : int;  (** one past the last token of the scope *)
  mutable binds : (string * int) list;
      (** names bound directly in this scope (params, let names,
          pattern variables, [for] indices), with binding-site token
          index; excludes names bound in child scopes *)
  mutable children : t list;
}

val build : Token.t array -> t
(** [build code] parses the token stream into a scope tree rooted at a
    {!File} scope spanning the whole array.  [code] must be the
    comment-stripped stream ({!Token.code}). *)

val contains : t -> int -> bool
(** [contains s i] is true when token index [i] falls in [s]'s range. *)

val innermost_non_closure : t -> int -> t
(** The innermost enclosing scope of token [i] that is not a
    {!Closure} or {!Block} — i.e. the structure-level binding (or
    module, or file) whose body contains [i].  Rules use its range as
    the "same definition" window, e.g. to look for a sort absolving a
    hash-table fold. *)

val closure_at : t -> int -> t option
(** [closure_at root i] finds the {!Closure} scope whose opening
    [fun]/[function] token is exactly [i]. *)

val bound_set : t -> (string, unit) Hashtbl.t
(** All names bound in [t] or any descendant scope.  For a closure
    this is the set of names that are {e not} captures. *)

val captures : Token.t array -> t -> (string * int) list
(** [captures code s] lists identifiers occurring in [s]'s range with
    no binder anywhere in [s]'s subtree — i.e. values captured from an
    enclosing scope — with the token index of their first occurrence.
    Qualified accesses ([M.x], [r.field]) and label names ([~x:]) are
    not occurrences. *)
