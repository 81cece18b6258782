(* The repo-specific rule set.  Rules work on token streams from
   {!Token}, so occurrences inside comments and string literals never
   trigger code rules. *)

open Rule

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  String.length s >= String.length suffix
  && String.sub s (String.length s - String.length suffix) (String.length suffix) = suffix

let basename path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let is_ml path = ends_with ~suffix:".ml" path

(* Token-stream helpers. *)

let tok (c : Token.t array) i : Token.t option = if i >= 0 && i < Array.length c then Some c.(i) else None

let is_dot c i = match tok c i with Some { kind = Token.Punct; text = "."; _ } -> true | _ -> false

let is_ident c i name =
  match tok c i with Some { kind = Token.Ident; text; _ } -> text = name | _ -> false

let is_op c i text' =
  match tok c i with Some { kind = Token.Op; text; _ } -> text = text' | _ -> false

(* A token is "qualified" when it follows a '.', e.g. the [compare] in
   [Int.compare]. *)
let qualified c i = is_dot c (i - 1)

(* ------------------------------------------------------------------ *)
(* 1. no-global-random                                                 *)
(* ------------------------------------------------------------------ *)

let no_global_random =
  let rec check rule ctx i acc =
    let c = ctx.code in
    if i >= Array.length c then List.rev acc
    else
      let acc =
        match c.(i) with
        | { kind = Token.Uident; text = "Random"; _ }
          when is_dot c (i + 1) && not (qualified c i) ->
            finding rule ctx
              ~message:
                "global Random breaks experiment reproducibility; use the seeded \
                 splittable generator in lib/prng (Fn_prng) instead"
              c.(i)
            :: acc
        | _ -> acc
      in
      check rule ctx (i + 1) acc
  in
  let rec rule =
    {
      name = "no-global-random";
      severity = Error;
      doc = "use lib/prng instead of OCaml's global Random";
      check = (fun ctx -> if is_ml ctx.path then check rule ctx 0 [] else []);
    }
  in
  rule

(* ------------------------------------------------------------------ *)
(* 2. no-poly-compare                                                  *)
(* ------------------------------------------------------------------ *)

let sort_functions = [ "sort"; "stable_sort"; "fast_sort"; "sort_uniq" ]
let sort_modules = [ "List"; "Array"; "ListLabels"; "ArrayLabels" ]

let no_poly_compare =
  let rec skip_label c i =
    (* skip an optional [~cmp:] / [~compare:] label *)
    if is_op c i "~" && (match tok c (i + 1) with Some { kind = Token.Ident; _ } -> true | _ -> false) && is_op c (i + 2) ":"
    then skip_label c (i + 3)
    else i
  in
  let comparator_pos c i =
    (* position right after the sort head, labels and one '(' skipped;
       the boolean records whether a '(' was consumed (a lambda
       comparator is always parenthesized in application position) *)
    let i = skip_label c i in
    match tok c i with
    | Some { kind = Token.Punct; text = "("; _ } -> (i + 1, true)
    | _ -> (i, false)
  in
  let flags_at rule ctx i =
    let c = ctx.code in
    let j, parenthesized = comparator_pos c i in
    let bare_compare k = is_ident c k "compare" && not (qualified c k) && not (is_dot c (k + 1)) in
    let stdlib_compare k =
      (match tok c k with Some { kind = Token.Uident; text = "Stdlib"; _ } -> true | _ -> false)
      && is_dot c (k + 1)
      && is_ident c (k + 2) "compare"
    in
    if bare_compare j then
      Some
        (finding rule ctx
           ~message:
             "bare polymorphic compare in a sort hot path costs a C call per \
              comparison; use Int.compare / Float.compare or an explicit \
              monomorphic comparator"
           c.(j))
    else if stdlib_compare j then
      Some
        (finding rule ctx
           ~message:
             "Stdlib.compare in a sort hot path is polymorphic; use a \
              monomorphic comparator"
           c.(j))
    else if parenthesized && (is_ident c j "fun" || is_ident c j "function") then
      (* a lambda comparator: scan its body to the matching close paren
         for a polymorphic compare hidden inside, e.g.
         [Array.sort (fun a b -> compare (x.(a), a) (x.(b), b)) arr] *)
      let n = Array.length c in
      let rec scan k depth =
        if depth = 0 || k >= n then None
        else
          match c.(k) with
          | { kind = Token.Punct; text = "("; _ } -> scan (k + 1) (depth + 1)
          | { kind = Token.Punct; text = ")"; _ } -> scan (k + 1) (depth - 1)
          | _ when bare_compare k ->
              Some
                (finding rule ctx
                   ~message:
                     "polymorphic compare inside a sort comparator costs a C \
                      call (and any tuple it compares, an allocation) per \
                      comparison; compose Int.compare / Float.compare \
                      monomorphically instead"
                   c.(k))
          | _ when stdlib_compare k ->
              Some
                (finding rule ctx
                   ~message:
                     "Stdlib.compare inside a sort comparator is polymorphic; \
                      compose monomorphic comparators instead"
                   c.(k))
          | _ -> scan (k + 1) depth
      in
      scan (j + 1) 1
    else None
  in
  let rec check rule ctx i acc =
    let c = ctx.code in
    if i >= Array.length c then List.rev acc
    else
      let acc =
        match c.(i) with
        | { kind = Token.Uident; text; _ }
          when List.mem text sort_modules && (not (qualified c i)) && is_dot c (i + 1) -> (
            match tok c (i + 2) with
            | Some { kind = Token.Ident; text = fn; _ } when List.mem fn sort_functions -> (
                match flags_at rule ctx (i + 3) with Some f -> f :: acc | None -> acc)
            | _ -> acc)
        | _ -> acc
      in
      check rule ctx (i + 1) acc
  in
  let rec rule =
    {
      name = "no-poly-compare";
      severity = Error;
      doc = "no bare polymorphic compare in sort calls";
      check = (fun ctx -> if is_ml ctx.path then check rule ctx 0 [] else []);
    }
  in
  rule

(* ------------------------------------------------------------------ *)
(* 3. no-catchall-exn                                                  *)
(* ------------------------------------------------------------------ *)

let no_catchall_exn =
  let rec check rule ctx i stack acc =
    let c = ctx.code in
    if i >= Array.length c then List.rev acc
    else
      match c.(i) with
      | { kind = Token.Ident; text = "try"; _ } -> check rule ctx (i + 1) (`Try :: stack) acc
      | { kind = Token.Ident; text = "match"; _ } -> check rule ctx (i + 1) (`Match :: stack) acc
      | { kind = Token.Ident; text = "with"; _ }
        when is_ident c (i + 1) "type" || is_ident c (i + 1) "module" ->
          (* module-type constraint: [S with type t = ...] *)
          check rule ctx (i + 1) stack acc
      | { kind = Token.Ident; text = "with"; _ } -> (
          let owner, stack = match stack with s :: rest -> (Some s, rest) | [] -> (None, []) in
          let j = if is_op c (i + 1) "|" then i + 2 else i + 1 in
          match owner with
          | Some `Try when is_ident c j "_" && is_op c (j + 1) "->" ->
              let f =
                finding rule ctx
                  ~message:
                    "catch-all exception handler swallows programming errors \
                     (Out_of_memory, Assert_failure, ...); match specific \
                     exceptions instead"
                  c.(j)
              in
              check rule ctx (i + 1) stack (f :: acc)
          | _ -> check rule ctx (i + 1) stack acc)
      | _ -> check rule ctx (i + 1) stack acc
  in
  let rec rule =
    {
      name = "no-catchall-exn";
      severity = Error;
      doc = "no 'try ... with _ ->' catch-all exception handlers";
      check = (fun ctx -> if is_ml ctx.path then check rule ctx 0 [] [] else []);
    }
  in
  rule

(* ------------------------------------------------------------------ *)
(* 4. mli-required                                                     *)
(* ------------------------------------------------------------------ *)

let mli_required =
  {
    name = "mli-required";
    severity = Error;
    doc = "every lib/**/*.ml needs a matching .mli interface";
    check =
      (fun ctx ->
        match ctx.mli_exists with
        | Some false ->
            [
              {
                rule = "mli-required";
                severity = Error;
                file = ctx.path;
                line = 1;
                col = 1;
                message =
                  "library module has no .mli: exported surface is \
                   unconstrained and cross-module inlining info bloats; add " ^ ctx.path ^ "i";
              };
            ]
        | _ -> []);
  }

(* ------------------------------------------------------------------ *)
(* 5. no-print-in-lib                                                  *)
(* ------------------------------------------------------------------ *)

let print_idents =
  [ "print_endline"; "print_string"; "print_newline"; "print_char"; "print_int"; "print_float" ]

let no_print_in_lib =
  let rec check rule ctx i acc =
    let c = ctx.code in
    if i >= Array.length c then List.rev acc
    else
      let flag tok' =
        finding rule ctx
          ~message:
            "stdout printing inside a library couples computation to the \
             terminal; return data and print from bin/, or move this into an \
             allowlisted reporter module"
          tok'
      in
      let acc =
        match c.(i) with
        | { kind = Token.Ident; text; _ } when List.mem text print_idents && not (qualified c i)
          ->
            flag c.(i) :: acc
        | { kind = Token.Uident; text = "Printf" | "Format"; _ }
          when (not (qualified c i)) && is_dot c (i + 1) && is_ident c (i + 2) "printf" ->
            flag c.(i) :: acc
        | _ -> acc
      in
      check rule ctx (i + 1) acc
  in
  let rec rule =
    {
      name = "no-print-in-lib";
      severity = Error;
      doc = "no stdout printing in lib/ outside reporter modules";
      check =
        (fun ctx ->
          if is_ml ctx.path && starts_with ~prefix:"lib/" ctx.path then check rule ctx 0 []
          else []);
    }
  in
  rule

(* ------------------------------------------------------------------ *)
(* 6. no-raw-timing                                                    *)
(* ------------------------------------------------------------------ *)

(* [Module.function] pairs that read wall/CPU clocks directly.  All
   timing must flow through lib/obs (Fn_obs.Clock): it is monotone
   (raw gettimeofday can step backwards under NTP) and keeps the
   zero-cost-when-disabled discipline auditable in one place. *)
let raw_timing_calls = [ ("Sys", [ "time" ]); ("Unix", [ "gettimeofday"; "time"; "times" ]) ]

let no_raw_timing =
  let rec check rule ctx i acc =
    let c = ctx.code in
    if i >= Array.length c then List.rev acc
    else
      let acc =
        match c.(i) with
        | { kind = Token.Uident; text; _ }
          when (not (qualified c i)) && is_dot c (i + 1) -> (
            match List.assoc_opt text raw_timing_calls with
            | Some fns
              when (match tok c (i + 2) with
                   | Some { kind = Token.Ident; text = fn; _ } -> List.mem fn fns
                   | _ -> false) ->
                finding rule ctx
                  ~message:
                    "raw clock read bypasses lib/obs; use Fn_obs.Clock (monotone, \
                     nanosecond) or emit through an Fn_obs.Sink so timing stays \
                     zero-cost when observability is off"
                  c.(i)
                :: acc
            | _ -> acc)
        | _ -> acc
      in
      check rule ctx (i + 1) acc
  in
  let rec rule =
    {
      name = "no-raw-timing";
      severity = Error;
      doc = "no Sys.time/Unix.gettimeofday outside lib/obs; use Fn_obs.Clock";
      check = (fun ctx -> if is_ml ctx.path then check rule ctx 0 [] else []);
    }
  in
  rule

(* ------------------------------------------------------------------ *)
(* 7. no-todo-naked                                                    *)
(* ------------------------------------------------------------------ *)

let no_todo_naked =
  let is_word_char ch =
    (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9') || ch = '_'
  in
  let tagged text i kwlen =
    (* accept TODO(owner) / FIXME(#123) ... *)
    let n = String.length text in
    let j = i + kwlen in
    if j < n && text.[j] = '(' then
      match String.index_from_opt text j ')' with
      | Some k -> k > j + 1
      | None -> false
    else
      (* ... or an issue tag '#<digits>' anywhere later in the comment *)
      let rec scan j =
        if j + 1 >= n then false
        else if text.[j] = '#' && text.[j + 1] >= '0' && text.[j + 1] <= '9' then true
        else scan (j + 1)
      in
      scan j
  in
  let occurrences comment_tok kw acc0 rule ctx =
    let text = (comment_tok : Token.t).text in
    let n = String.length text and kwlen = String.length kw in
    let rec go i line col_base acc =
      if i + kwlen > n then acc
      else if text.[i] = '\n' then go (i + 1) (line + 1) (i + 1) acc
      else if
        String.sub text i kwlen = kw
        && (i = 0 || not (is_word_char text.[i - 1]))
        && (i + kwlen >= n || not (is_word_char text.[i + kwlen]))
        && not (tagged text i kwlen)
      then
        let col = if line = comment_tok.line then comment_tok.col + i else i - col_base + 1 in
        let f =
          {
            rule = rule.name;
            severity = rule.severity;
            file = ctx.path;
            line;
            col;
            message = kw ^ " without an owner or issue tag; write " ^ kw ^ "(name) or cite #<issue>";
          }
        in
        go (i + kwlen) line col_base (f :: acc)
      else go (i + 1) line col_base acc
    in
    go 0 comment_tok.line 0 acc0
  in
  let rec rule =
    {
      name = "no-todo-naked";
      severity = Warning;
      doc = "TODO/FIXME must carry an owner or issue tag";
      check =
        (fun ctx ->
          Array.fold_left
            (fun acc t ->
              match (t : Token.t).kind with
              | Token.Comment -> occurrences t "FIXME" (occurrences t "TODO" acc rule ctx) rule ctx
              | _ -> acc)
            [] ctx.tokens
          |> List.rev);
    }
  in
  rule

(* ------------------------------------------------------------------ *)
(* 8. no-exit-in-lib                                                   *)
(* ------------------------------------------------------------------ *)

(* Library code must not terminate the process: a raised exception
   reaches the binary, which reports it and closes its trace sink and
   journal, but [exit] bypasses every handler (and kills sibling
   domains mid fork-join).  Only bin/ decides exit codes.  Unqualified
   [exit] is flagged unless it is being *defined* ([let exit ...] —
   lib/obs/span.ml exports its own [exit] for spans); [Stdlib.exit] is
   always flagged. *)
let no_exit_in_lib =
  let rec check rule ctx i acc =
    let c = ctx.code in
    if i >= Array.length c then List.rev acc
    else
      let flag tok' =
        finding rule ctx
          ~message:
            "exit inside a library kills the whole process and bypasses the \
             caller's error handling and cleanup; return a result or raise, \
             and let bin/ choose the exit code"
          tok'
      in
      let acc =
        match c.(i) with
        | { kind = Token.Ident; text = "exit"; _ }
          when (not (qualified c i))
               && (not (is_ident c (i - 1) "let"))
               && not (is_ident c (i - 1) "and") ->
            flag c.(i) :: acc
        | { kind = Token.Uident; text = "Stdlib"; _ }
          when (not (qualified c i)) && is_dot c (i + 1) && is_ident c (i + 2) "exit" ->
            flag c.(i) :: acc
        | _ -> acc
      in
      check rule ctx (i + 1) acc
  in
  let rec rule =
    {
      name = "no-exit-in-lib";
      severity = Error;
      doc = "no exit/Stdlib.exit in lib/; only bin/ may terminate the process";
      check =
        (fun ctx ->
          if is_ml ctx.path && starts_with ~prefix:"lib/" ctx.path then check rule ctx 0 []
          else []);
    }
  in
  rule

(* ------------------------------------------------------------------ *)
(* 9. no-raw-csr-outside-kernels                                       *)
(* ------------------------------------------------------------------ *)

(* [Graph.xadj]/[Graph.adj] expose the flat CSR arrays, which only
   exist on materialized graphs.  Code written against them silently
   loses the implicit arm of [Gview.t] — it cannot run on a generated
   10^7-node torus.  Everything outside the few allowlisted flat-array
   kernels must go through [Graph.iter_neighbors] / [Gview].  The check
   fires on the [Graph] token whether or not it is itself qualified, so
   [Fn_graph.Graph.xadj] from outside the library is caught too. *)
let raw_csr_fields = [ "xadj"; "adj" ]

let no_raw_csr_outside_kernels =
  let rec check rule ctx i acc =
    let c = ctx.code in
    if i >= Array.length c then List.rev acc
    else
      let acc =
        match c.(i) with
        | { kind = Token.Uident; text = "Graph"; _ }
          when is_dot c (i + 1)
               && (match tok c (i + 2) with
                  | Some { kind = Token.Ident; text = fn; _ } -> List.mem fn raw_csr_fields
                  | _ -> false) ->
            finding rule ctx
              ~message:
                "raw CSR access (Graph.xadj/Graph.adj) pins this code to \
                 materialized graphs and breaks on implicit Gview topologies; \
                 iterate with Graph.iter_neighbors / Gview.iter_neighbors, or \
                 allowlist this file as a flat-array kernel"
              c.(i)
            :: acc
        | _ -> acc
      in
      check rule ctx (i + 1) acc
  in
  let rec rule =
    {
      name = "no-raw-csr-outside-kernels";
      severity = Error;
      doc = "Graph.xadj/Graph.adj only in allowlisted flat-array kernels";
      check = (fun ctx -> if is_ml ctx.path then check rule ctx 0 [] else []);
    }
  in
  rule

(* ------------------------------------------------------------------ *)
(* 10. no-gview-arm-match                                              *)
(* ------------------------------------------------------------------ *)

(* Every traversal, boundary and component kernel is written once, as
   one loop over [Gview.iter_neighbors view]; a match on the view's
   arms is how per-representation twins of a kernel start.  Implicit
   views are built with the [Gview.implicit] smart constructor, so the
   [Gview.Implicit] constructor only ever appears in patterns: the
   rule fires on it anywhere, and on [Gview.Csr] at the start of a
   match arm (after [|], [with] or [function]), which also catches
   [| Gview.Csr g -> ... | _ -> ...].  An unqualified [Implicit] or
   [Csr] arm (inside gview.ml, or under an open of Gview) fires too.
   Like no-raw-csr-outside-kernels it fires whether or not [Gview] is
   itself qualified. *)
let no_gview_arm_match =
  let arm_start c i = is_op c i "|" || is_ident c i "with" || is_ident c i "function" in
  (* first token of the module path qualifying the token at [i] *)
  let rec path_start c i =
    match tok c (i - 2) with
    | Some { kind = Token.Uident; _ } when is_dot c (i - 1) -> path_start c (i - 2)
    | _ -> i
  in
  let via_gview c i =
    qualified c i
    && match tok c (i - 2) with Some { kind = Token.Uident; text = "Gview"; _ } -> true | _ -> false
  in
  let rec check rule ctx i acc =
    let c = ctx.code in
    if i >= Array.length c then List.rev acc
    else
      let acc =
        match c.(i) with
        | { kind = Token.Uident; text = ("Implicit" | "Csr") as ctor; _ }
          when not (is_dot c (i + 1)) ->
            let in_arm = arm_start c (path_start c i - 1) in
            if
              (via_gview c i && (ctor = "Implicit" || in_arm))
              || ((not (qualified c i)) && in_arm)
            then
              finding rule ctx
                ~message:
                  "a match on the Gview arms splits one kernel into per-representation \
                   copies; bind Gview.iter_neighbors view once and write one loop, or \
                   allowlist this file with the reason its arms do different work"
                c.(i)
              :: acc
            else acc
        | _ -> acc
      in
      check rule ctx (i + 1) acc
  in
  let rec rule =
    {
      name = "no-gview-arm-match";
      severity = Error;
      doc =
        "Gview.Implicit / Gview.Csr match arms only in allowlisted files whose arms \
         do different work";
      check = (fun ctx -> if is_ml ctx.path then check rule ctx 0 [] else []);
    }
  in
  rule

(* ------------------------------------------------------------------ *)
(* Registry and allowlist                                              *)
(* ------------------------------------------------------------------ *)

(* Tier 2: scope-aware rules (see Scope/Analysis).  Defined in their
   own modules; re-exported here so the registry stays the one list. *)
let par_capture_mutation = Rules_par.par_capture_mutation
let rng_unsplit_in_par = Rules_par.rng_unsplit_in_par
let par_float_reduce = Rules_par.par_float_reduce
let hashtbl_order_dependence = Rules_order.hashtbl_order_dependence
let dls_outside_obs = Rules_order.dls_outside_obs
let hidden_state_outside_obs = Rules_order.hidden_state_outside_obs

let all =
  [
    no_global_random;
    no_poly_compare;
    no_catchall_exn;
    mli_required;
    no_print_in_lib;
    no_raw_timing;
    no_todo_naked;
    no_exit_in_lib;
    no_raw_csr_outside_kernels;
    no_gview_arm_match;
    par_capture_mutation;
    rng_unsplit_in_par;
    par_float_reduce;
    hashtbl_order_dependence;
    dls_outside_obs;
    hidden_state_outside_obs;
  ]

let find name = List.find_opt (fun r -> r.name = name) all

type pattern = Prefix of string | Basename of string
type allow = { pattern : pattern; why : string }

let prefix p why = { pattern = Prefix p; why }
let base b why = { pattern = Basename b; why }

(* Paths where a rule does not apply at all.  Every exemption carries
   its reason as data, so `lint --explain RULE` can print not just
   where a rule is off but why — the record replaces the comments that
   used to sit next to each entry. *)
let allowlist =
  [
    ( "no-global-random",
      [
        prefix "lib/prng/"
          "the PRNG library is the one place allowed to touch Random, to seed/splitmix \
           on top of it";
      ] );
    ( "no-print-in-lib",
      let why =
        "designated reporter module: rendering tables / experiment outcomes to stdout \
         is its whole job"
      in
      [ base "table.ml" why; base "report.ml" why; base "outcome.ml" why ] );
    ( "no-raw-timing",
      [
        prefix "lib/obs/"
          "the observability clock is the one legal wrapper over the raw OS clock; \
           everything else (including lib/bench and bench/, deliberately NOT listed \
           here) times through Fn_obs.Clock so bench numbers and spans share one clock";
      ] );
    ( "no-raw-csr-outside-kernels",
      [
        prefix "lib/graph_core/check.ml"
          "walks the raw CSR to validate its invariants (sortedness, symmetry — the \
           thing the accessors assume)";
        prefix "lib/routing/sim.ml"
          "arc-indexed queues are keyed by CSR edge positions, which have no Gview \
           analogue";
        prefix "lib/expansion/spectral_op.ml"
          "the spectral matvec's CSR arm is a flat-array kernel (a closure over the \
           row sum would box it on every edge); its implicit arm stays on the \
           neighbor closure";
      ] );
    ( "no-gview-arm-match",
      [
        prefix "lib/graph_core/gview.ml"
          "defines Gview.t: its accessors are the one place each arm is unpacked, \
           so every kernel elsewhere can loop over Gview.iter_neighbors";
        prefix "lib/expansion/spectral_op.ml"
          "the matvec's CSR arm gathers over Graph.xadj/Graph.adj in place (a \
           neighbor closure would box the float accumulator on every edge); the \
           implicit arm drives the generator closure";
        prefix "lib/percolation/newman_ziff.ml"
          "bond_run's CSR arm reuses the already sorted Graph.edges array; the \
           implicit arm collects the generator's edges and sorts them";
      ] );
    ( "no-catchall-exn",
      [
        prefix "lib/online/engine.ml"
          "the audit-quarantine post-mortem write is crash-only diagnostics: no \
           filesystem failure (full disk, missing dir) may escalate a detected \
           divergence into a dead service, so the one write site deliberately \
           swallows everything";
      ] );
    ( "no-exit-in-lib",
      [
        base "span.ml"
          "defines and internally calls its own [exit] (closing a span); that shadowed \
           name is not Stdlib.exit";
      ] );
    ( "par-capture-mutation",
      [
        prefix "lib/parallel/"
          "implements the blessed primitives themselves: fork-join plumbing writes \
           disjoint per-chunk slots by construction";
      ] );
    ( "par-float-reduce",
      [
        prefix "lib/parallel/"
          "defines the ordered-reduce primitives the rule tells everyone else to reach \
           for";
      ] );
    ( "rng-unsplit-in-par",
      [
        prefix "lib/parallel/"
          "the split-RNG plumbing itself lives here; it hands each chunk its own \
           stream";
      ] );
    ( "dls-outside-obs",
      [
        prefix "lib/obs/"
          "the per-domain span stack is the one sanctioned Domain.DLS use (the rule's \
           own doc says so)";
      ] );
    ( "hidden-state-outside-obs",
      [
        prefix "lib/obs/" "the span stack and the metrics registry";
        prefix "lib/bench/kernels.ml"
          "the kernel registry, filled once as the module initialises";
        prefix "lib/expansion/estimate.ml"
          "the solve memo: a pure cache whose hits equal a cold solve bit for bit, \
           which test_expansion's solve memo cases check";
      ] );
  ]

let matches path = function
  | Prefix p -> starts_with ~prefix:p path
  | Basename b -> basename path = b

let allowed ~rule ~path =
  match List.assoc_opt rule allowlist with
  | None -> false
  | Some entries -> List.exists (fun a -> matches path a.pattern) entries
