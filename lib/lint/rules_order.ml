open Rule

let is_ml path = String.ends_with ~suffix:".ml" path

let is_dot (c : Token.t array) i =
  i >= 0 && i < Array.length c && c.(i).kind = Token.Punct && c.(i).text = "."

let ident_at (c : Token.t array) i =
  if i >= 0 && i < Array.length c && c.(i).kind = Token.Ident then Some c.(i).text
  else None

(* A sort anywhere in the same structure-level definition absolves an
   order-dependent fold: building an unordered list and sorting it
   before use is the repo's canonical Hashtbl pattern. *)
let sorted_nearby (c : Token.t array) root at =
  let scope = Scope.innermost_non_closure root at in
  let last = min scope.Scope.last (Array.length c) in
  let rec scan i =
    if i >= last then false
    else
      match ident_at c i with
      | Some ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") -> true
      | _ -> scan (i + 1)
  in
  scan scope.Scope.first

(* Is the combiner body order-sensitive?
   - fold: the accumulator is a bound parameter, so mutation tracking
     cannot see it; any [::]/[@]/[^] or float arithmetic in the body is
     treated as accumulation.
   - iter: only *captured* mutations that accumulate ([::] or float
     ops on the RHS) count — integer counters, [max]-style updates and
     indexed writes are commutative and deterministic.
   Appending to a Buffer/Queue/Stack or printing is order-sensitive for
   both forms. *)
let body_order_sensitive (c : Token.t array) ~fold (closure : Scope.t) =
  let first = closure.Scope.first and last = closure.Scope.last in
  let sink = Analysis.order_sensitive_sink c ~first ~last in
  if sink <> None then sink
  else if fold then begin
    let last = min last (Array.length c) in
    let rec scan i =
      if i >= last then None
      else if Analysis.float_op c i then Some i
      else
        match c.(i) with
        | { Token.kind = Token.Op; text = "::" | "@" | "^"; _ } -> Some i
        | _ -> scan (i + 1)
    in
    scan first
  end
  else
    let bound = Scope.bound_set closure in
    Analysis.mutations c ~first ~last
    |> List.find_opt (fun (m : Analysis.mutation) ->
           m.target <> ""
           && (not (Hashtbl.mem bound m.target))
           && (m.float_acc || m.cons_acc))
    |> Option.map (fun (m : Analysis.mutation) -> m.at)

let hashtbl_order_dependence =
  let rec rule =
    {
      name = "hashtbl-order-dependence";
      severity = Error;
      doc = "Hashtbl iteration feeding ordered output must pass through a sort";
      check =
        (fun ctx ->
          let c = ctx.code in
          if not (is_ml ctx.path) then []
          else begin
            let n = Array.length c in
            let out = ref [] in
            for i = 0 to n - 3 do
              match c.(i) with
              | { Token.kind = Token.Uident; text = "Hashtbl"; _ }
                when is_dot c (i + 1)
                     && (match ident_at c (i + 2) with
                        | Some ("iter" | "fold") -> true
                        | _ -> false)
                     && not (is_dot c (i - 1)) -> (
                let fold = ident_at c (i + 2) = Some "fold" in
                let root = Lazy.force ctx.scope in
                let sensitive =
                  match Analysis.arg_closures c root (i + 2) with
                  | closure :: _ -> body_order_sensitive c ~fold closure
                  | [] ->
                    (* opaque combiner: cannot classify, so require the
                       sort unconditionally *)
                    Some i
                in
                match sensitive with
                | Some _ when not (sorted_nearby c root i) ->
                  out :=
                    finding rule ctx
                      ~message:
                        (Printf.sprintf
                           "Hashtbl.%s feeds an order-sensitive accumulator, \
                            but iteration order is unspecified (it varies \
                            with hash seed and insertion history): collect \
                            then List.sort before the result reaches output, \
                            or use a commutative combiner"
                           (if fold then "fold" else "iter"))
                      c.(i)
                    :: !out
                | _ -> ())
              | _ -> ()
            done;
            List.rev !out
          end);
    }
  in
  rule

let dls_outside_obs =
  let rec rule =
    {
      name = "dls-outside-obs";
      severity = Error;
      doc = "Domain.DLS only in lib/obs; domain-local state evades the determinism contract";
      check =
        (fun ctx ->
          let c = ctx.code in
          if not (is_ml ctx.path) then []
          else begin
            let n = Array.length c in
            let out = ref [] in
            for i = 0 to n - 3 do
              match c.(i) with
              | { Token.kind = Token.Uident; text = "Domain"; _ }
                when is_dot c (i + 1)
                     && (match c.(i + 2) with
                        | { kind = Token.Uident; text = "DLS"; _ } -> true
                        | _ -> false)
                     && not (is_dot c (i - 1)) ->
                out :=
                  finding rule ctx
                    ~message:
                      "Domain.DLS holds per-domain state that checkpointing \
                       and the ?domains determinism contract cannot see; keep \
                       state explicit (pass it through the closure) or extend \
                       Fn_obs if observability truly needs it"
                    c.(i)
                  :: !out
              | _ -> ()
            done;
            List.rev !out
          end);
    }
  in
  rule

(* hidden-state-outside-obs: a structure-level value binding whose
   right-hand side, run once at module initialisation, creates a [ref],
   an [Atomic.t] or a [Hashtbl.t].  That state is shared by every caller
   and every domain, and nothing that checks a result (the ?domains
   contract, a journal, a digest) can see it.  Function bindings are
   skipped, and so are [fun]/[function] bodies inside a value: both run
   per call.  One finding per binding, at its first such token. *)

(* Index of the [=] ending the binding head opened at [first] (its [let]
   or [and]), when the binding is a value rather than a function: the
   leading binder (a name, [_], or a bracketed pattern) is followed by
   [=], [:], [,] or [as], not by a parameter. *)
let value_binding_eq (c : Token.t array) first last =
  let last = min last (Array.length c) in
  let is k kind text = k < last && c.(k).kind = kind && c.(k).text = text in
  let opener k = is k Token.Punct "(" || is k Token.Punct "[" || is k Token.Punct "{" in
  let closer k = is k Token.Punct ")" || is k Token.Punct "]" || is k Token.Punct "}" in
  let rec close_of k depth =
    if k >= last then None
    else if opener k then close_of (k + 1) (depth + 1)
    else if closer k then if depth = 1 then Some k else close_of (k + 1) (depth - 1)
    else close_of (k + 1) depth
  in
  let rec eq_at k depth =
    if k >= last then None
    else if opener k then eq_at (k + 1) (depth + 1)
    else if closer k then eq_at (k + 1) (depth - 1)
    else if depth = 0 && is k Token.Op "=" then Some k
    else eq_at (k + 1) depth
  in
  let j = if is (first + 1) Token.Ident "rec" then first + 2 else first + 1 in
  let after_binder =
    if opener j then Option.map (fun k -> k + 1) (close_of j 0)
    else if j < last && c.(j).kind = Token.Ident then Some (j + 1)
    else None
  in
  match after_binder with
  | Some k
    when is k Token.Op "=" || is k Token.Op ":" || is k Token.Punct "," || is k Token.Ident "as"
    ->
    eq_at j 0
  | Some _ | None -> None

(* The state constructor starting at [i], if any: [ref],
   [Atomic.make] or [Hashtbl.create], bare or under [Stdlib.]. *)
let state_constructor (c : Token.t array) i =
  let under_stdlib =
    is_dot c (i - 1)
    && i >= 2
    && (match c.(i - 2) with { Token.kind = Token.Uident; text = "Stdlib"; _ } -> true | _ -> false)
    && not (is_dot c (i - 3))
  in
  let head_ok = (not (is_dot c (i - 1))) || under_stdlib in
  let label = i >= 1 && c.(i - 1).kind = Token.Op && (c.(i - 1).text = "~" || c.(i - 1).text = "?") in
  if (not head_ok) || label then None
  else
    match c.(i) with
    | { Token.kind = Token.Ident; text = "ref"; _ } -> Some "ref"
    | { Token.kind = Token.Uident; text = ("Atomic" | "Hashtbl") as m; _ } when is_dot c (i + 1) -> (
      match (m, ident_at c (i + 2)) with
      | "Atomic", Some "make" -> Some "Atomic.make"
      | "Hashtbl", Some "create" -> Some "Hashtbl.create"
      | _ -> None)
    | _ -> None

(* Structure items that end a value's right-hand side when they appear
   at its top level ([let module]/[let open] do not). *)
let structure_keywords = [ "type"; "module"; "open"; "include"; "exception"; "external"; "class" ]

let hidden_state_outside_obs =
  let rec rule =
    {
      name = "hidden-state-outside-obs";
      severity = Error;
      doc =
        "top-level ref / Atomic.make / Hashtbl.create bindings in lib only in allowlisted \
         files; module-level state is shared by every caller and domain and no result check \
         can see it";
      check =
        (fun ctx ->
          let c = ctx.code in
          if not (is_ml ctx.path && String.starts_with ~prefix:"lib/" ctx.path) then []
          else begin
            let root = Lazy.force ctx.scope in
            let out = ref [] in
            let rec closures (s : Scope.t) acc =
              List.fold_left
                (fun acc (ch : Scope.t) ->
                  match ch.Scope.kind with
                  | Scope.Closure -> ch :: acc
                  | _ -> closures ch acc)
                acc s.Scope.children
            in
            let check_binding (b : Scope.t) name =
              match value_binding_eq c b.Scope.first b.Scope.last with
              | None -> ()
              | Some eq ->
                let skipped = closures b [] in
                let in_closure i = List.exists (fun s -> Scope.contains s i) skipped in
                let last = min b.Scope.last (Array.length c) in
                let rec scan i depth =
                  if i >= last then ()
                  else
                    match c.(i) with
                    | { Token.kind = Token.Punct; text = "(" | "[" | "{"; _ } -> scan (i + 1) (depth + 1)
                    | { Token.kind = Token.Punct; text = ")" | "]" | "}"; _ } -> scan (i + 1) (depth - 1)
                    | { Token.kind = Token.Op; text = ";;"; _ } when depth = 0 -> ()
                    | { Token.kind = Token.Ident; text; _ }
                      when depth = 0
                           && List.mem text structure_keywords
                           && not (i >= 1 && ident_at c (i - 1) = Some "let") ->
                      ()
                    | _ when in_closure i -> scan (i + 1) depth
                    | _ -> (
                      match state_constructor c i with
                      | Some what ->
                        out :=
                          finding rule ctx
                            ~message:
                              (Printf.sprintf
                                 "top-level binding %s creates module-level state (%s) \
                                  when the module initialises: every caller and domain \
                                  shares it and no determinism check, journal or digest \
                                  sees it; pass the state explicitly, or allowlist the \
                                  file with the reason its state cannot change a result"
                                 (if name = "" then "()" else name)
                                 what)
                            c.(i)
                          :: !out
                      | None -> scan (i + 1) depth)
                in
                scan (eq + 1) 0
            in
            let rec walk (s : Scope.t) =
              (match s.Scope.kind with Scope.Binding name -> check_binding s name | _ -> ());
              List.iter walk s.Scope.children
            in
            walk root;
            !out
          end);
    }
  in
  rule
