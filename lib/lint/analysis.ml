type entry = { at : int; path : string; blessed_indexed : bool }

let tok (c : Token.t array) i = if i >= 0 && i < Array.length c then Some c.(i) else None

let is_dot c i =
  match tok c i with Some { Token.kind = Token.Punct; text = "."; _ } -> true | _ -> false

let is_op c i text =
  match tok c i with
  | Some { Token.kind = Token.Op; text = t; _ } -> t = text
  | _ -> false

let ident_at c i =
  match tok c i with
  | Some { Token.kind = Token.Ident; text; _ } -> Some text
  | _ -> None

let uident_at c i =
  match tok c i with
  | Some { Token.kind = Token.Uident; text; _ } -> Some text
  | _ -> None

(* (module, function) pairs recognised as parallel-region entry points.
   Matching is on the final path segment, so [Fn_parallel.Par.map] and
   [Par.map] both match ("Par", "map"). *)
let entry_table =
  [
    ("Par", "map", false);
    ("Par", "init", false);
    ("Par", "trials", false);
    ("Pool", "run", true);
    ("Domain", "spawn", false);
  ]

let entries (c : Token.t array) =
  let n = Array.length c in
  let out = ref [] in
  for i = 0 to n - 3 do
    match (uident_at c i, is_dot c (i + 1), ident_at c (i + 2)) with
    | Some m, true, Some f -> (
      match
        List.find_opt (fun (m', f', _) -> m' = m && f' = f) entry_table
      with
      | Some (_, _, blessed_indexed) ->
        out := { at = i + 2; path = m ^ "." ^ f; blessed_indexed } :: !out
      | None -> ())
    | _ -> ()
  done;
  List.rev !out

(* Operators that do not terminate an argument list at depth 0:
   labels, optional args, deref, and type-ascription colons. *)
let arg_continuation_op = function "~" | "?" | "!" | ":" -> true | _ -> false

let arg_closures (c : Token.t array) root at =
  let n = Array.length c in
  let rec go j depth acc =
    if j >= n then List.rev acc
    else
      let t = c.(j) in
      match (t.Token.kind, t.Token.text) with
      | Token.Punct, ("(" | "[" | "{") -> go (j + 1) (depth + 1) acc
      | Token.Punct, (")" | "]" | "}") ->
        if depth = 0 then List.rev acc else go (j + 1) (depth - 1) acc
      | Token.Punct, (";" | ",") when depth = 0 -> List.rev acc
      | Token.Ident, "begin" -> go (j + 1) (depth + 1) acc
      | Token.Ident, "end" ->
        if depth = 0 then List.rev acc else go (j + 1) (depth - 1) acc
      | Token.Ident, ("in" | "let" | "and" | "then" | "else" | "done" | "with" | "do")
        when depth = 0 ->
        List.rev acc
      | Token.Op, op when depth = 0 && not (arg_continuation_op op) -> List.rev acc
      | Token.Ident, ("fun" | "function") when depth = 1 ->
        let acc =
          match Scope.closure_at root j with
          | Some s -> s :: acc
          | None -> acc
        in
        go (j + 1) depth acc
      | _ -> go (j + 1) depth acc
  in
  go (at + 1) 0 []

type mutation = {
  target : string;
  at : int;
  desc : string;
  indexed : bool;
  float_acc : bool;
  cons_acc : bool;
  guarded : bool;
}

(* mutating functions by module; bool = element write (disjoint-indexable) *)
let module_mutators =
  [
    ("Array", "set", true);
    ("Array", "unsafe_set", true);
    ("Array", "fill", true);
    ("Array", "blit", true);
    ("Array", "sort", false);
    ("Array", "stable_sort", false);
    ("Array", "fast_sort", false);
    ("Bytes", "set", true);
    ("Bytes", "unsafe_set", true);
    ("Bytes", "fill", true);
    ("Bytes", "blit", true);
    ("Hashtbl", "add", false);
    ("Hashtbl", "replace", false);
    ("Hashtbl", "remove", false);
    ("Hashtbl", "reset", false);
    ("Hashtbl", "clear", false);
    ("Hashtbl", "filter_map_inplace", false);
    ("Buffer", "add_string", false);
    ("Buffer", "add_char", false);
    ("Buffer", "add_bytes", false);
    ("Buffer", "add_buffer", false);
    ("Buffer", "add_substring", false);
    ("Buffer", "clear", false);
    ("Buffer", "reset", false);
    ("Buffer", "truncate", false);
    ("Queue", "add", false);
    ("Queue", "push", false);
    ("Queue", "pop", false);
    ("Queue", "take", false);
    ("Queue", "clear", false);
    ("Queue", "transfer", false);
    ("Stack", "push", false);
    ("Stack", "pop", false);
    ("Stack", "clear", false);
    ("Bitset", "add", false);
    ("Bitset", "remove", false);
  ]

(* walk backwards from the token before [:=]/[<-] to the base ident of
   the lvalue, skipping [.field] chains and [.(index)] groups *)
let lvalue_base (c : Token.t array) op_idx =
  let matching_opener j =
    (* j sits on ")" or "]"; find its opener *)
    let rec back k depth =
      if k < 0 then None
      else
        match c.(k) with
        | { Token.kind = Token.Punct; text = ")" | "]"; _ } -> back (k - 1) (depth + 1)
        | { kind = Token.Punct; text = "(" | "["; _ } ->
          if depth = 0 then Some k else back (k - 1) (depth - 1)
        | _ -> back (k - 1) depth
    in
    back (j - 1) 0
  in
  let rec base j indexed =
    if j < 0 then ("", indexed)
    else
      match c.(j) with
      | { Token.kind = Token.Punct; text = ")" | "]"; _ } -> (
        match matching_opener j with
        | Some opener when is_dot c (opener - 1) -> base (opener - 2) true
        | _ -> ("", indexed))
      | { kind = Token.Ident | Token.Uident; text; _ } ->
        if is_dot c (j - 1) then base (j - 2) indexed else (text, indexed)
      | _ -> ("", indexed)
  in
  base (op_idx - 1) false

(* Float operators lex as [Op "+"] followed by [Punct "."] ('.' is not
   an operator char in {!Token}), so detect them as the pair. *)
let float_op (c : Token.t array) i =
  (match c.(i) with
  | { Token.kind = Token.Op; text = "+" | "-" | "*" | "/"; _ } -> true
  | _ -> false)
  && is_dot c (i + 1)

(* scan the right-hand side of an assignment for accumulation shapes *)
let rhs_flags (c : Token.t array) op_idx =
  let n = Array.length c in
  let float_acc = ref false and cons_acc = ref false in
  let rec go j depth steps =
    if j >= n || steps > 60 then ()
    else if float_op c j then begin
      float_acc := true;
      go (j + 1) depth (steps + 1)
    end
    else
      let t = c.(j) in
      match (t.Token.kind, t.Token.text) with
      | Token.Punct, ("(" | "[" | "{") -> go (j + 1) (depth + 1) steps
      | Token.Punct, (")" | "]" | "}") ->
        if depth > 0 then go (j + 1) (depth - 1) (steps + 1)
      | Token.Punct, ";" when depth = 0 -> ()
      | Token.Ident, ("in" | "done" | "end") when depth = 0 -> ()
      | Token.Op, ("::" | "@" | "^") ->
        cons_acc := true;
        go (j + 1) depth (steps + 1)
      | _ -> go (j + 1) depth (steps + 1)
  in
  go (op_idx + 1) 0 0;
  (!float_acc, !cons_acc)

let lock_index (c : Token.t array) ~first ~last =
  let found = ref None in
  let last = min last (Array.length c) in
  for i = first to last - 1 do
    if !found = None then begin
      match ident_at c i with
      | Some ("with_lock" | "protect") -> found := Some i
      | Some "lock" when is_dot c (i - 1) && uident_at c (i - 2) = Some "Mutex" ->
        found := Some i
      | _ -> ()
    end
  done;
  !found

let is_keyword_arg c i =
  (* [~label:] or [?label:] in argument position is not a target *)
  (is_op c (i - 1) "~" || is_op c (i - 1) "?") && is_op c (i + 1) ":"

let mutations (c : Token.t array) ~first ~last =
  let last = min last (Array.length c) in
  let lock = lock_index c ~first ~last in
  let guarded_at i = match lock with Some l -> i > l | None -> false in
  let out = ref [] in
  let add m = out := m :: !out in
  for i = first to last - 1 do
    let t = c.(i) in
    (match (t.Token.kind, t.Token.text) with
    | Token.Op, (":=" | "<-") ->
      let target, indexed = lvalue_base c i in
      let float_acc, cons_acc = rhs_flags c i in
      add
        {
          target;
          at = i;
          desc = t.Token.text;
          indexed = (indexed && t.Token.text = "<-");
          float_acc;
          cons_acc;
          guarded = guarded_at i;
        }
    | Token.Ident, ("incr" | "decr") when not (is_dot c (i - 1)) -> (
      match ident_at c (i + 1) with
      | Some target ->
        add
          {
            target;
            at = i;
            desc = t.Token.text;
            indexed = false;
            float_acc = false;
            cons_acc = false;
            guarded = guarded_at i;
          }
      | _ -> ())
    | Token.Ident, f when is_dot c (i - 1) -> (
      match uident_at c (i - 2) with
      | Some m -> (
        match
          List.find_opt (fun (m', f', _) -> m' = m && f' = f) module_mutators
        with
        | Some (_, _, elem_write) -> (
          (* target = first plain ident argument, if syntactically obvious *)
          match ident_at c (i + 1) with
          | Some target when not (is_keyword_arg c (i + 1)) ->
            add
              {
                target;
                at = i - 2;
                desc = m ^ "." ^ f;
                indexed = elem_write;
                float_acc = false;
                cons_acc = false;
                guarded = guarded_at i;
              }
          | _ ->
            add
              {
                target = "";
                at = i - 2;
                desc = m ^ "." ^ f;
                indexed = elem_write;
                float_acc = false;
                cons_acc = false;
                guarded = guarded_at i;
              })
        | None -> ())
      | None -> ())
    | _ -> ())
  done;
  List.rev !out

let order_sensitive_sink (c : Token.t array) ~first ~last =
  let last = min last (Array.length c) in
  let found = ref None in
  for i = first to last - 1 do
    if !found = None then begin
      match c.(i) with
      | { Token.kind = Token.Uident; text = "Buffer" | "Queue" | "Stack" | "Printf" | "Format"; _ }
        when is_dot c (i + 1) ->
        found := Some i
      | { kind = Token.Ident; text; _ }
        when (not (is_dot c (i - 1)))
             && List.mem text
                  [ "print_string"; "print_endline"; "print_int"; "print_float"; "print_newline" ]
        ->
        found := Some i
      | _ -> ()
    end
  done;
  !found
