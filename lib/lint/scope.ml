type kind =
  | File
  | Module of string
  | Binding of string
  | Closure
  | Block

type t = {
  kind : kind;
  first : int;
  mutable last : int;
  mutable binds : (string * int) list;
  mutable children : t list;
}

(* Keywords never collected as binders.  A few non-keywords that show up
   in binder position scans ([true]/[false] in patterns) ride along. *)
let keywords =
  [
    "let"; "rec"; "nonrec"; "and"; "in"; "fun"; "function"; "match"; "with";
    "type"; "module"; "open"; "include"; "if"; "then"; "else"; "begin"; "end";
    "struct"; "sig"; "object"; "do"; "done"; "while"; "for"; "to"; "downto";
    "try"; "when"; "as"; "of"; "exception"; "mutable"; "val"; "external";
    "method"; "lazy"; "assert"; "new"; "true"; "false";
  ]

let is_keyword s = List.mem s keywords

let binder_ident (t : Token.t) =
  t.kind = Token.Ident && not (is_keyword t.text)

(* Build state: the scope stack carries, next to each scope, the paren
   depth and source column at which it was opened, so structure-level
   [let]s (same column, same paren depth) can close their predecessor
   while expression-level [let ... in] just records binders. *)
type frame = { scope : t; parens_at : int; col : int }

let build (c : Token.t array) =
  let n = Array.length c in
  let root = { kind = File; first = 0; last = n; binds = []; children = [] } in
  let stack = ref [ { scope = root; parens_at = 0; col = 0 } ] in
  let parens = ref [] in
  (* for each open paren: stack height when it was opened *)
  let height () = List.length !stack in
  let top () = (List.hd !stack).scope in
  let push kind first col =
    let s = { kind; first; last = n; binds = []; children = [] } in
    stack :=
      { scope = s; parens_at = List.length !parens; col } :: !stack
  in
  let pop stop =
    match !stack with
    | f :: ({ scope = parent; _ } :: _ as rest) ->
      f.scope.last <- stop;
      parent.children <- f.scope :: parent.children;
      stack := rest
    | _ -> ()
  in
  let close_to h stop =
    while height () > h && height () > 1 do
      pop stop
    done
  in
  (* [end]/[done]: close scopes up to and including the nearest
     Module/Block; ignore a stray one. *)
  let close_delimited stop =
    let rec has_delim = function
      | [] -> false
      | { scope = { kind = Module _ | Block; _ }; _ } :: _ -> true
      | _ :: rest -> has_delim rest
    in
    if has_delim (List.tl (List.rev !stack) |> List.rev) then begin
      (* only frames above root considered *)
      let rec go () =
        match !stack with
        | [ _root ] -> ()
        | { scope = { kind; _ }; _ } :: _ ->
          pop stop;
          (match kind with Module _ | Block -> () | _ -> go ())
        | [] -> ()
      in
      go ()
    end
  in
  let add_bind name i =
    let s = top () in
    s.binds <- (name, i) :: s.binds
  in
  let tok i = c.(i) in
  let is_dot i =
    i >= 0 && i < n && (tok i).kind = Token.Punct && (tok i).text = "."
  in
  (* Collect binder idents from [j0] until an [->] at relative paren
     depth 0; abandon (collect nothing) when the pattern clearly is not
     one, e.g. we run off the construct. *)
  let collect_until_arrow j0 =
    let rec go j depth acc steps =
      if j >= n || steps > 80 then None
      else
        let t = tok j in
        match (t.kind, t.text) with
        | Token.Op, "->" when depth = 0 -> Some (List.rev acc)
        | Token.Punct, ("(" | "[" | "{") -> go (j + 1) (depth + 1) acc (steps + 1)
        | Token.Punct, (")" | "]" | "}") ->
          if depth = 0 then None else go (j + 1) (depth - 1) acc (steps + 1)
        | Token.Punct, ";" when depth = 0 -> None
        | Token.Ident, ("in" | "let" | "done" | "end" | "fun") when depth = 0 ->
          None
        | Token.Ident, _ when binder_ident t && not (is_dot (j - 1)) ->
          go (j + 1) depth ((t.text, j) :: acc) (steps + 1)
        | _ -> go (j + 1) depth acc (steps + 1)
    in
    go j0 0 [] 0
  in
  (* Collect binder idents between a [let]/[and] and its [=] at relative
     depth 0.  Over-collects type-annotation names; that is fine (see
     scope.mli). *)
  let collect_let j0 =
    let rec go j depth acc steps =
      if j >= n || steps > 80 then List.rev acc
      else
        let t = tok j in
        match (t.kind, t.text) with
        | Token.Op, "=" when depth = 0 -> List.rev acc
        | Token.Punct, ("(" | "[" | "{") -> go (j + 1) (depth + 1) acc (steps + 1)
        | Token.Punct, (")" | "]" | "}") ->
          if depth = 0 then List.rev acc
          else go (j + 1) (depth - 1) acc (steps + 1)
        | Token.Ident, ("in" | "let" | "struct" | "fun") when depth = 0 ->
          List.rev acc
        | Token.Ident, _ when binder_ident t && not (is_dot (j - 1)) ->
          go (j + 1) depth ((t.text, j) :: acc) (steps + 1)
        | _ -> go (j + 1) depth acc (steps + 1)
    in
    go j0 0 [] 0
  in
  (* name for [module X = struct]: scan back a few tokens for the
     Uident following a [module] keyword *)
  let module_name i =
    let lo = max 0 (i - 8) in
    let rec find_module j =
      if j < lo then None
      else if (tok j).kind = Token.Ident && (tok j).text = "module" then Some j
      else find_module (j - 1)
    in
    match find_module (i - 1) with
    | None -> ""
    | Some m ->
      let rec first_uident j =
        if j >= i then ""
        else if (tok j).kind = Token.Uident then (tok j).text
        else first_uident (j + 1)
      in
      first_uident (m + 1)
  in
  let i = ref 0 in
  while !i < n do
    let t = tok !i in
    (match (t.kind, t.text) with
    | Token.Punct, ("(" | "[" | "{") -> parens := height () :: !parens
    | Token.Punct, (")" | "]" | "}") -> (
      match !parens with
      | h :: rest ->
        close_to h !i;
        parens := rest
      | [] -> ())
    | Token.Ident, "struct" -> push (Module (module_name !i)) !i t.col
    | Token.Ident, ("sig" | "object" | "begin" | "do") -> push Block !i t.col
    | Token.Ident, ("end" | "done") -> close_delimited !i
    | Token.Ident, ("fun" | "function") ->
      push Closure !i t.col;
      (match collect_until_arrow (!i + 1) with
      | Some binders -> List.iter (fun (name, j) -> add_bind name j) binders
      | None -> ())
    | Token.Ident, ("let" | "and")
      when not (is_dot (!i - 1))
           && not
                (!i + 1 < n
                && (tok (!i + 1)).kind = Token.Ident
                && List.mem (tok (!i + 1)).text [ "open"; "module"; "exception" ])
      ->
      (* Structure level?  Close the previous structure binding when we
         are back at (or left of) its column with no extra parens, and
         with it any unbracketed [fun]/[function] body it leaves open
         (such a closure runs to the end of its binding). *)
      let rec closes = function
        | { scope = { kind = Closure; _ }; parens_at; _ } :: rest
          when parens_at = List.length !parens ->
          closes rest
        | { scope = { kind = Binding _; _ }; parens_at; col } :: _ ->
          parens_at = List.length !parens && t.col <= col
        | _ -> false
      in
      let rec close_bindings () =
        if closes !stack then begin
          pop !i;
          close_bindings ()
        end
      in
      close_bindings ();
      let binders = collect_let (!i + 1) in
      let structural =
        match !stack with
        | { scope = { kind = File | Module _; _ }; parens_at; _ } :: _ ->
          parens_at = List.length !parens
        | _ -> false
      in
      if structural then begin
        let name = match binders with (name, _) :: _ -> name | [] -> "" in
        push (Binding name) !i t.col;
        List.iter (fun (name, j) -> add_bind name j) binders
      end
      else List.iter (fun (name, j) -> add_bind name j) binders
    | Token.Op, "|" -> (
      (* candidate match/function case: binders up to the arrow *)
      match collect_until_arrow (!i + 1) with
      | Some binders -> List.iter (fun (name, j) -> add_bind name j) binders
      | None -> ())
    | Token.Ident, "with"
      when not
             (!i + 1 < n
             && (tok (!i + 1)).kind = Token.Ident
             && List.mem (tok (!i + 1)).text [ "type"; "module" ]) -> (
      (* first case of a [match]/[try] may omit the leading [|] *)
      match collect_until_arrow (!i + 1) with
      | Some binders -> List.iter (fun (name, j) -> add_bind name j) binders
      | None -> ())
    | Token.Ident, "for" ->
      if !i + 1 < n && binder_ident (tok (!i + 1)) then
        add_bind (tok (!i + 1)).text (!i + 1)
    | Token.Ident, "as" ->
      if !i + 1 < n && binder_ident (tok (!i + 1)) then
        add_bind (tok (!i + 1)).text (!i + 1)
    | _ -> ());
    incr i
  done;
  close_to 1 n;
  root

let contains s i = i >= s.first && i < s.last

let enclosing root i =
  let rec go s acc =
    match List.find_opt (fun ch -> contains ch i) s.children with
    | Some ch -> go ch (s :: acc)
    | None -> s :: acc
  in
  if contains root i then go root [] else []

let innermost_non_closure root i =
  let chain = enclosing root i in
  match
    List.find_opt (fun s -> match s.kind with Closure | Block -> false | _ -> true) chain
  with
  | Some s -> s
  | None -> root

let rec iter f s =
  f s;
  List.iter (iter f) s.children

let closure_at root i =
  let found = ref None in
  iter (fun s -> if s.kind = Closure && s.first = i then found := Some s) root;
  !found

let bound_set s =
  let tbl = Hashtbl.create 32 in
  iter (fun sc -> List.iter (fun (name, _) -> Hashtbl.replace tbl name ()) sc.binds) s;
  tbl

let captures (c : Token.t array) s =
  let n = Array.length c in
  let bound = bound_set s in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let is_punct i text = i >= 0 && i < n && c.(i).kind = Token.Punct && c.(i).text = text in
  let is_op i text = i >= 0 && i < n && c.(i).kind = Token.Op && c.(i).text = text in
  for i = s.first to min (s.last - 1) (n - 1) do
    let t = c.(i) in
    if
      t.kind = Token.Ident
      && (not (is_keyword t.text))
      && (not (is_punct (i - 1) "."))
      && (not ((is_op (i - 1) "~" || is_op (i - 1) "?") && is_op (i + 1) ":"))
      && (not (Hashtbl.mem bound t.text))
      && not (Hashtbl.mem seen t.text)
    then begin
      Hashtbl.add seen t.text ();
      out := (t.text, i) :: !out
    end
  done;
  List.rev !out
