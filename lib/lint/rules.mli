(** The faultnet-lint rule set and allowlist. *)

(** Tier-2 scope-aware rules, re-exported from {!Rules_par} and
    {!Rules_order} so the registry is the single list. *)

val all : Rule.t list
val find : string -> Rule.t option

type pattern = Prefix of string | Basename of string

type allow = { pattern : pattern; why : string }
(** One path exemption and the reason it exists.  The rationale is
    data, not a comment: [lint --explain RULE] prints it next to each
    exempted path. *)

val allowlist : (string * allow list) list
(** Per-rule path exemptions. *)

val allowed : rule:string -> path:string -> bool

(** Shared path helpers. *)

val starts_with : prefix:string -> string -> bool
val ends_with : suffix:string -> string -> bool
