(* Whole-repo export audit.

   Every [val] in a [lib/**/*.mli], including those of [module X : sig]
   blocks, is a promise that docs and tests must keep, so each one needs
   a caller outside its own module.  This pass finds the callers on the
   lint tokenizer, so comments and strings never count, and resolves
   [Lib.Mod.name], [Mod.name] through a library's own modules, submodule
   paths such as [Par.Pool.with_pool], [module X = ...] aliases, and
   [open], [let open], [include] and [Mod.( ... )].

   An export is kept when
   - code outside its module in lib, bin, bench, perfbench or examples
     calls it;
   - its module is reached by that code and uses the value itself, and
     a test calls it directly;
   - or it is on [allowlist] below: a test oracle or fixture for other
     production code, with the reason.
   Anything else fails "every export has a caller": un-export a value
   only its own .ml uses, delete one nothing calls.

   [test_exports.exe --report ROOT] prints the counts and the verdict
   on every export of the tree at ROOT. *)

module Token = Fn_lint.Token

(* ------------------------------------------------------------------ *)
(* The export table                                                    *)
(* ------------------------------------------------------------------ *)

type lib = { lib_name : string; modules : string list }

type export = {
  lib : string;  (** e.g. ["Fn_parallel"] *)
  path : string list;  (** module, then submodules: [["Par"; "Pool"]] *)
  name : string;
}

let key e = String.concat "." ((e.lib :: e.path) @ [ e.name ])

let read_file path = In_channel.with_open_bin path In_channel.input_all

let code src = Token.code (Token.tokenize src)

let text toks i = if i >= 0 && i < Array.length toks then toks.(i).Token.text else ""

let is_uident toks i = i >= 0 && i < Array.length toks && toks.(i).Token.kind = Token.Uident

let is_ident toks i = i >= 0 && i < Array.length toks && toks.(i).Token.kind = Token.Ident

(* Token [i] follows a [.] that is not the tail of a float operator
   such as [+.]: it continues a path or names a record field. *)
let after_dot toks i =
  text toks (i - 1) = "." && not (i >= 2 && toks.(i - 2).Token.kind = Token.Op)

let is_opener = function "(" | "[" | "{" | "begin" | "struct" | "sig" | "object" -> true | _ -> false

let is_closer = function ")" | "]" | "}" | "end" -> true | _ -> false

(* [module X : sig] or [module X = struct] names X when [i] is the
   [sig]/[struct] token. *)
let module_head toks i =
  if (text toks (i - 1) = ":" || text toks (i - 1) = "=") && is_uident toks (i - 2)
     && text toks (i - 3) = "module"
  then Some (text toks (i - 2))
  else None

(* The [val]s of one interface, with the submodule path of each. *)
let interface_vals ~lib ~modname src =
  let toks = code src in
  let stack = ref [] and out = ref [] in
  Array.iteri
    (fun i (t : Token.t) ->
      if is_opener t.text && t.kind = Token.Ident then
        stack := (if t.text = "sig" then module_head toks i else None) :: !stack
      else if t.text = "end" then (match !stack with _ :: rest -> stack := rest | [] -> ())
      else if t.text = "val" && is_ident toks (i + 1) then
        let subs = List.rev (List.filter_map Fun.id !stack) in
        out := { lib; path = modname :: subs; name = text toks (i + 1) } :: !out)
    toks;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Name resolution                                                     *)
(* ------------------------------------------------------------------ *)

type universe = {
  libs : lib list;
  exports : export list;
  by_key : (string, export) Hashtbl.t;
  modules : (string * string list, unit) Hashtbl.t;  (** every module path that exists *)
}

let universe libs exports =
  let by_key = Hashtbl.create 1024 and modules = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace by_key (key e) e) exports;
  List.iter (fun l -> List.iter (fun m -> Hashtbl.replace modules (l.lib_name, [ m ]) ()) l.modules) libs;
  let rec prefixes lib rev_path =
    match rev_path with
    | [] -> ()
    | _ :: rest ->
        Hashtbl.replace modules (lib, List.rev rev_path) ();
        prefixes lib rest
  in
  List.iter (fun e -> prefixes e.lib (List.rev e.path)) exports;
  { libs; exports; by_key; modules }

(* What a module path denotes. *)
type target =
  | Ns of string  (** a library's top module, e.g. [Fn_graph] *)
  | Mod of string * string list  (** a module of a library *)
  | Opaque  (** anything else: Stdlib, a test-local module, a functor *)

type entry = Bind of string * target | Open of target

let find_export u lib path name = Hashtbl.find_opt u.by_key (key { lib; path; name })

(* One step down a module path. *)
let step u t name =
  match t with
  | Ns lib when Hashtbl.mem u.modules (lib, [ name ]) -> Mod (lib, [ name ])
  | Mod (lib, p) when Hashtbl.mem u.modules (lib, p @ [ name ]) -> Mod (lib, p @ [ name ])
  | _ -> Opaque

(* The module a capitalized name denotes, innermost scope first. *)
let rec lookup u env name =
  match env with
  | Bind (n, t) :: _ when n = name -> t
  | Open t :: rest -> ( match step u t name with Opaque -> lookup u rest name | found -> found)
  | _ :: rest -> lookup u rest name
  | [] -> if List.exists (fun l -> l.lib_name = name) u.libs then Ns name else Opaque

(* The export a bare lowercase name denotes through an [open], if any. *)
let rec lookup_value u env name =
  match env with
  | Open (Mod (lib, p)) :: rest -> (
      match find_export u lib p name with Some e -> Some e | None -> lookup_value u rest name)
  | _ :: rest -> lookup_value u rest name
  | [] -> None

(* Where a source file sits: the library module it implements, or the
   sibling modules of an executable or test directory. *)
type home = In_lib of string * string | Local of string list

type use = { export : export; internal : bool  (** from the export's own module *) }

(* Keywords that start a top-level phrase at column 1; a [let open] or
   [let module] of the phrase before ends there. *)
let phrase_starts = [ "let"; "and"; "module"; "type"; "open"; "include"; "exception"; "external" ]

(* Tokens after which a lowercase name binds or labels, not uses. *)
let binders = [ "let"; "rec"; "and"; "val"; "external"; "method"; "type"; "~"; "?" ]

(* Every use of an export in one source file. *)
let uses u ~home src =
  let toks = code src in
  let n = Array.length toks in
  let own = match home with In_lib (lib, m) -> Some (lib, m) | Local _ -> None in
  let initial =
    match home with
    | In_lib (lib, m) ->
        let l = List.find (fun l -> l.lib_name = lib) u.libs in
        Open (Mod (lib, [ m ])) :: List.map (fun s -> Bind (s, Mod (lib, [ s ]))) l.modules
    | Local locals -> List.map (fun s -> Bind (s, Opaque)) locals
  in
  let found = ref [] in
  let record e =
    let internal = match own with Some (lib, m) -> e.lib = lib && List.hd e.path = m | None -> false in
    found := { export = e; internal } :: !found
  in
  (* [base] is the file-level scope; [env] adds the local opens and
     aliases of the current phrase and groups; [groups] saves [env] at
     each opener for its closer to restore. *)
  let base = ref initial and env = ref initial and groups = ref [] in
  (* A scope entry made by the keyword at [kw]: file-level unless it is
     local ([let open], [let module]) or inside a group. *)
  let add ~kw entry =
    env := entry :: !env;
    if !groups = [] && text toks (kw - 1) <> "let" then base := entry :: !base
  in
  let open_group opener extra =
    groups := (opener, !env) :: !groups;
    env := extra @ !env
  in
  let close_group () =
    match !groups with
    | (_, saved) :: rest ->
        env := saved;
        groups := rest
    | [] -> ()
  in
  let i = ref 0 in
  while !i < n do
    let t = toks.(!i) and at = !i in
    (match t.kind with
    | Token.Uident when not (after_dot toks at) ->
        (* a module path: resolve it segment by segment *)
        let target = ref (lookup u !env t.text) and j = ref (at + 1) in
        while text toks !j = "." && is_uident toks (!j + 1) do
          target := step u !target (text toks (!j + 1));
          j := !j + 2
        done;
        if text toks !j = "." && is_ident toks (!j + 1) then begin
          (match !target with
          | Mod (lib, p) -> Option.iter record (find_export u lib p (text toks (!j + 1)))
          | Ns _ | Opaque -> ());
          i := !j + 1
        end
        else if text toks !j = "." && is_opener (text toks (!j + 1)) then begin
          open_group (text toks (!j + 1)) [ Open !target ];
          i := !j + 1
        end
        else begin
          let prev = text toks (at - 1) in
          if prev = "open" || prev = "include" then add ~kw:(at - 1) (Open !target)
          else if prev = "=" && is_uident toks (at - 2) && text toks (at - 3) = "module" then
            add ~kw:(at - 3)
              (Bind (text toks (at - 2), if text toks !j = "(" then Opaque else !target));
          i := !j - 1
        end
    | Token.Ident when is_opener t.text ->
        (* [module X = struct]: X is local, or a submodule of this file's
           own interface whose bare names are its own values *)
        let extra =
          match (module_head toks at, own) with
          | Some x, Some (lib, m) when t.text = "struct" && Hashtbl.mem u.modules (lib, [ m; x ]) ->
              add ~kw:(at - 3) (Bind (x, Mod (lib, [ m; x ])));
              [ Open (Mod (lib, [ m; x ])) ]
          | Some x, _ ->
              add ~kw:(at - 3) (Bind (x, Opaque));
              []
          | None, _ -> []
        in
        open_group t.text extra
    | Token.Ident when is_closer t.text -> close_group ()
    | Token.Ident ->
        if t.col = 1 && !groups = [] && List.mem t.text phrase_starts then env := !base;
        if not (after_dot toks at || List.mem (text toks (at - 1)) binders) then
          Option.iter record (lookup_value u !env t.text)
    | Token.Punct when is_opener t.text -> open_group t.text []
    | Token.Punct when is_closer t.text -> close_group ()
    | _ -> ());
    incr i
  done;
  List.rev !found

(* ------------------------------------------------------------------ *)
(* The tree                                                            *)
(* ------------------------------------------------------------------ *)

let ls dir =
  match Sys.readdir dir with
  | names ->
      Array.sort String.compare names;
      Array.to_list names
  | exception Sys_error _ -> []

let visible name = name <> "" && name.[0] <> '.' && name.[0] <> '_'

let rec walk dir =
  List.concat_map
    (fun name ->
      let path = Filename.concat dir name in
      if not (visible name) then []
      else if Sys.is_directory path then walk path
      else [ path ])
    (ls dir)

let module_of path = String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* The [(name ...)] of a dune [library] stanza. *)
let library_name dune =
  let toks = Token.tokenize dune in
  let found = ref None in
  Array.iteri
    (fun i (t : Token.t) ->
      if !found = None && t.text = "name" && text toks (i - 1) = "(" && text toks (i - 2) = "library"
      then found := Some (String.capitalize_ascii (text toks (i + 1))))
    toks;
  !found

type tree = {
  u : universe;
  sources : (string * home * bool) list;  (** path, home, is a test *)
}

let production_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

let load root =
  let lib_dirs =
    List.filter_map
      (fun d ->
        let dir = Filename.concat (Filename.concat root "lib") d in
        let dune = Filename.concat dir "dune" in
        if Sys.file_exists dune then Option.map (fun l -> (dir, l)) (library_name (read_file dune))
        else None)
      (ls (Filename.concat root "lib"))
  in
  let libs, exports =
    List.split
      (List.map
         (fun (dir, lib_name) ->
           let files = walk dir in
           let modules =
             List.sort_uniq String.compare
               (List.filter_map
                  (fun f ->
                    if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then
                      Some (module_of f)
                    else None)
                  files)
           in
           let vals =
             List.concat_map
               (fun f ->
                 if Filename.check_suffix f ".mli" then
                   interface_vals ~lib:lib_name ~modname:(module_of f) (read_file f)
                 else [])
               files
           in
           ({ lib_name; modules }, vals))
         lib_dirs)
  in
  let u = universe libs (List.concat exports) in
  let sources =
    List.concat_map
      (fun top ->
        let dir = Filename.concat root top in
        let files = List.filter (fun f -> Filename.check_suffix f ".ml") (walk dir) in
        List.map
          (fun f ->
            let fdir = Filename.dirname f in
            let home =
              match List.assoc_opt fdir lib_dirs with
              | Some lib -> In_lib (lib, module_of f)
              | None ->
                  Local
                    (List.filter_map
                       (fun g -> if Filename.dirname g = fdir then Some (module_of g) else None)
                       files)
            in
            (f, home, top = "test"))
          files)
      (production_dirs @ [ "test" ])
  in
  { u; sources }

(* ------------------------------------------------------------------ *)
(* The rule                                                            *)
(* ------------------------------------------------------------------ *)

(* Exports kept for the tests alone: each is an oracle or a fixture
   that a test checks other production code against.  A whole module is
   written [Lib.Mod.*].  An entry must still have a test caller, and
   must be needed: one that the other rules already keep fails. *)
let allowlist =
  [
    ("Fn_expansion.Analytic.*", "closed-form expansions the exact solver is checked against");
    ("Fn_graph.Check.*", "CSR invariants every generator test checks its output with");
    ("Fn_topology.Basic.*", "the small fixture graphs (path, star, barbell...) of most suites");
    ("Fn_graph.Graph.equal", "structural equality: mesh, torus and hypercube against products");
    ("Fn_graph.Graph.empty", "the 0- and 1-node fixtures of the degenerate-size cases");
    ("Fn_graph.Graph.pp", "prints a failing graph in the QCheck generators");
    ("Fn_graph.Bitset.pp", "prints a failing node set in the property tests");
    ("Fn_graph.Bitset.to_list", "sorted members: the expected sets of the traversal tests");
    ("Fn_graph.Metrics.diameter", "the exact diameter the double-sweep estimate is bounded by");
    ("Fn_graph.Steiner.verify", "checks every tree Steiner.exact and Steiner.approx return");
    ("Fn_topology.Product.cartesian", "mesh = path x path, torus = cycle x cycle, Q_d = K2^d");
    ("Fn_topology.Chain_graph.claim24_witness", "Claim 2.4's witness set, checked against Chain_graph.build");
    ("Fn_faults.Fault_set.of_faulty_list", "the fixed fault sets of the Prune, Prune2 and scenario tests");
    ("Fn_online.Engine.alive_mask", "the mask the from-scratch Cert.scratch oracle is run on");
    ("Fn_online.Fuzz.*", "the protocol fuzzer that @fuzz-smoke and the online suite drive");
    ("Fn_resilience.Snapshot.read", "reads back the audit post-mortem the quarantine test checks");
  ]

type callers = {
  mutable prod : string list;  (** files outside the module, not tests *)
  mutable tests : string list;
  mutable internal : bool;  (** the module's own .ml uses it *)
}

type verdict =
  | Called  (** production code outside the module calls it *)
  | Driven  (** its reached module uses it, and a test calls it *)
  | Allowed of string
  | Unused  (** used in its own .ml at most *)
  | Test_only

let allowed e =
  let k = key e in
  let m = String.concat "." (e.lib :: e.path) ^ ".*" in
  List.find_map (fun (a, why) -> if a = k || a = m then Some why else None) allowlist

let callers tree =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.replace tbl (key e) { prod = []; tests = []; internal = false }) tree.u.exports;
  List.iter
    (fun (path, home, is_test) ->
      List.iter
        (fun use ->
          let c = Hashtbl.find tbl (key use.export) in
          if use.internal then c.internal <- true
          else if is_test then (if not (List.mem path c.tests) then c.tests <- path :: c.tests)
          else if not (List.mem path c.prod) then c.prod <- path :: c.prod)
        (uses tree.u ~home (read_file path)))
    tree.sources;
  tbl

let verdicts tree =
  let c = callers tree in
  let reached = Hashtbl.create 64 in
  List.iter
    (fun e -> if (Hashtbl.find c (key e)).prod <> [] then Hashtbl.replace reached (e.lib, List.hd e.path) ())
    tree.u.exports;
  List.map
    (fun e ->
      let ce = Hashtbl.find c (key e) in
      let v =
        if ce.prod <> [] then Called
        else if ce.tests = [] then Unused
        else if ce.internal && Hashtbl.mem reached (e.lib, List.hd e.path) then Driven
        else match allowed e with Some why -> Allowed why | None -> Test_only
      in
      (e, ce, v))
    tree.u.exports

let describe (e, ce, v) =
  match v with
  | Called ->
      Printf.sprintf "%s: called%s" (key e) (if ce.tests = [] then " (no test calls it)" else "")
  | Driven -> Printf.sprintf "%s: used by its module, driven by %s" (key e) (String.concat " " ce.tests)
  | Allowed why -> Printf.sprintf "%s: allowlisted (%s)" (key e) why
  | Unused ->
      Printf.sprintf "%s: no caller outside its module (%s)" (key e)
        (if ce.internal then "un-export it" else "delete it")
  | Test_only ->
      Printf.sprintf "%s: called only from tests (%s)" (key e) (String.concat " " (List.rev ce.tests))

let report root =
  let vs = verdicts (load root) in
  let count p = List.length (List.filter (fun (_, _, v) -> p v) vs) in
  Printf.printf "exports %d: called %d, driven %d, allowlisted %d, unused %d, test-only %d\n"
    (List.length vs)
    (count (( = ) Called))
    (count (( = ) Driven))
    (count (function Allowed _ -> true | _ -> false))
    (count (( = ) Unused))
    (count (( = ) Test_only));
  List.iter (fun x -> print_endline (describe x)) vs

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let check_bool = Alcotest.(check bool)
let check_strings = Alcotest.(check (list string))

(* A two-library universe for the resolver cases. *)
let tiny =
  let libs =
    [
      { lib_name = "Fn_graph"; modules = [ "Graph"; "Bfs" ] };
      { lib_name = "Fn_parallel"; modules = [ "Par" ] };
    ]
  in
  let e lib path name = { lib; path; name } in
  universe libs
    [
      e "Fn_graph" [ "Graph" ] "n";
      e "Fn_graph" [ "Graph" ] "equal";
      e "Fn_graph" [ "Bfs" ] "ball";
      e "Fn_parallel" [ "Par" ] "map";
      e "Fn_parallel" [ "Par"; "Pool" ] "with_pool";
    ]

let found ?(home = Local []) src =
  List.sort_uniq String.compare (List.map (fun u -> key u.export) (uses tiny ~home src))

let test_interface_vals () =
  let src =
    "val map : int -> int\n(** [val hidden] in a doc *)\nmodule Pool : sig\n  type t\n\
     \  val with_pool : (t -> 'a) -> 'a\nend\nval default_domains : unit -> int\n"
  in
  check_strings "top level and submodule"
    [ "Fn_parallel.Par.map"; "Fn_parallel.Par.Pool.with_pool"; "Fn_parallel.Par.default_domains" ]
    (List.map key (interface_vals ~lib:"Fn_parallel" ~modname:"Par" src))

let test_qualified_paths () =
  check_strings "library prefix" [ "Fn_graph.Graph.n" ] (found "let x = Fn_graph.Graph.n g");
  check_strings "submodule path" [ "Fn_parallel.Par.Pool.with_pool" ]
    (found "open Fn_parallel\nlet x = Par.Pool.with_pool f");
  check_strings "float operator before a path" [ "Fn_graph.Graph.n" ]
    (found "open Fn_graph\nlet x = 1.0 +. Graph.n g");
  check_strings "a record field is no use" [] (found "open Fn_graph\nlet x = r.Graph.n")

let test_aliases_and_opens () =
  check_strings "module alias" [ "Fn_graph.Graph.equal" ]
    (found "module G = Fn_graph.Graph\nlet x = G.equal a b");
  check_strings "let module" [ "Fn_graph.Bfs.ball" ]
    (found "let f () =\n  let module B = Fn_graph.Bfs in\n  B.ball g 0 1");
  check_strings "open of a module" [ "Fn_graph.Graph.n" ] (found "open Fn_graph.Graph\nlet x = n g");
  check_strings "include" [ "Fn_graph.Graph.n" ] (found "include Fn_graph.Graph\nlet x = n g");
  check_strings "local open" [ "Fn_graph.Graph.equal" ]
    (found "let f a b =\n  let open Fn_graph.Graph in\n  equal a b");
  check_strings "Mod.( ... )" [ "Fn_graph.Graph.equal"; "Fn_graph.Graph.n" ]
    (found "let x = Fn_graph.Graph.(equal a b && n a = 0)");
  check_strings "bindings and labels are no use" []
    (found "open Fn_graph.Graph\nlet n = 3\nlet f ~n:m = m")

let test_scopes_end () =
  check_strings "Mod.( ... ) ends at its paren" []
    (found "let x = Fn_graph.Graph.(a) + n");
  check_strings "let open ends at the next phrase" []
    (found "let f () =\n  let open Fn_graph.Graph in\n  ()\n\nlet g = n");
  check_strings "an executable's own module is not a library's" []
    (found ~home:(Local [ "Graph" ]) "let x = Graph.n g");
  check_strings "until an open shadows it" [ "Fn_graph.Graph.n" ]
    (found ~home:(Local [ "Graph" ]) "open Fn_graph\nlet x = Graph.n g")

let test_comments_and_strings () =
  check_strings "never a use" []
    (found "(* Fn_graph.Graph.n *)\nlet s = \"Fn_graph.Graph.n\"\nlet t = {|Fn_graph.Graph.equal|}")

let test_internal_uses () =
  let us = uses tiny ~home:(In_lib ("Fn_graph", "Graph")) "let equal a b = n a = n b" in
  check_bool "own module" true
    (us <> [] && List.for_all (fun (u : use) -> u.internal && key u.export = "Fn_graph.Graph.n") us);
  let us = uses tiny ~home:(In_lib ("Fn_graph", "Bfs")) "let ball g = Graph.n g" in
  check_bool "sibling module" true (List.map (fun (u : use) -> u.internal) us = [ false ])

let tree = lazy (verdicts (load ".."))

let test_tree_found () =
  let vs = Lazy.force tree in
  check_bool "hundreds of exports" true (List.length vs > 300);
  check_bool "a submodule export is called" true
    (List.exists
       (fun (e, _, v) -> key e = "Fn_parallel.Par.Pool.with_pool" && v = Called)
       vs)

let test_every_export_has_a_caller () =
  match
    List.filter (fun (_, _, v) -> match v with Unused | Test_only -> true | _ -> false) (Lazy.force tree)
  with
  | [] -> ()
  | bad ->
      Alcotest.failf "%d export(s) need a caller outside their module:\n%s" (List.length bad)
        (String.concat "\n" (List.map describe bad))

let test_allowlist_needed () =
  let vs = Lazy.force tree in
  List.iter
    (fun (entry, _) ->
      check_bool (entry ^ " keeps an export no other rule keeps") true
        (List.exists
           (fun (e, _, v) ->
             match v with
             | Allowed _ -> key e = entry || String.concat "." (e.lib :: e.path) ^ ".*" = entry
             | _ -> false)
           vs))
    allowlist

let () =
  match Sys.argv with
  | [| _; "--report"; root |] -> report root
  | _ ->
      let case name f = Alcotest.test_case name `Quick f in
      Alcotest.run "exports"
        [
          ( "resolver",
            [
              case "interfaces list submodule vals" test_interface_vals;
              case "qualified and submodule paths" test_qualified_paths;
              case "aliases and opens" test_aliases_and_opens;
              case "local scopes end" test_scopes_end;
              case "comments and strings" test_comments_and_strings;
              case "own-module uses are internal" test_internal_uses;
            ] );
          ( "tree",
            [
              case "exports found" test_tree_found;
              case "every export has a caller" test_every_export_has_a_caller;
              case "allowlist entries are needed" test_allowlist_needed;
            ] );
        ]
