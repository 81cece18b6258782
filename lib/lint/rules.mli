(** The faultnet-lint rule set and allowlist. *)

val no_global_random : Rule.t
(** Forbid [Random.] outside [lib/prng/]: the global generator breaks
    experiment reproducibility. *)

val no_poly_compare : Rule.t
(** Flag bare [compare] (or [Stdlib.compare]) passed to
    [List.sort]/[Array.sort] and friends: polymorphic compare costs a C
    call per element on hot paths. *)

val no_catchall_exn : Rule.t
(** Forbid [try ... with _ ->]: catch-alls swallow programming errors. *)

val mli_required : Rule.t
(** Every [lib/**/*.ml] must have a matching [.mli]. *)

val no_print_in_lib : Rule.t
(** Forbid [Printf.printf]/[print_endline]/... in [lib/] outside the
    reporter allowlist. *)

val no_raw_timing : Rule.t
(** Forbid [Sys.time]/[Unix.gettimeofday]/[Unix.time]/[Unix.times]
    outside [lib/obs/]: all timing flows through the monotone
    [Fn_obs.Clock]. *)

val no_todo_naked : Rule.t
(** [TODO]/[FIXME] must carry an owner ([TODO(name)]) or an issue tag
    ([#123]). Warning severity. *)

val no_exit_in_lib : Rule.t
(** Forbid [exit]/[Stdlib.exit] in [lib/]: terminating the process from
    a library skips the caller's cleanup (trace sinks, journals) and
    kills sibling domains; only [bin/] chooses exit codes. *)

val no_gview_arm_match : Rule.t
(** Forbid matching on the [Gview.t] arms ([Gview.Implicit]
    anywhere, [Gview.Csr] at the start of a match arm) outside the
    allowlisted files whose arms do different work: every other kernel
    is one loop over [Gview.iter_neighbors]. *)

(** Tier-2 scope-aware rules, re-exported from {!Rules_par} and
    {!Rules_order} so the registry is the single list. *)

val par_capture_mutation : Rule.t
val rng_unsplit_in_par : Rule.t
val par_float_reduce : Rule.t
val hashtbl_order_dependence : Rule.t
val dls_outside_obs : Rule.t

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

val allow_reason : rule:string -> path:string -> string option
(** The [why] of the first exemption matching [path], if any. *)

(** Shared path helpers. *)

val starts_with : prefix:string -> string -> bool
val ends_with : suffix:string -> string -> bool
val basename : string -> string
