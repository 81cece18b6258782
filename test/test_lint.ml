(* Tests for faultnet-lint: tokenizer edge cases, every rule (hit and
   non-hit fixtures), suppression comments, allowlist, reporters. *)

open Fn_lint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let lint ?(path = "lib/somelib/somefile.ml") ?mli_exists src =
  Engine.lint_string ~path ?mli_exists src

let rules_hit findings = List.map (fun (f : Rule.finding) -> f.rule) findings

(* ------------------------------------------------------------------ *)
(* Tokenizer                                                           *)
(* ------------------------------------------------------------------ *)

let kinds src =
  Token.tokenize src |> Array.to_list |> List.map (fun (t : Token.t) -> t.kind)

let test_tok_basic () =
  let toks = Token.tokenize "let x = List.sort compare xs" in
  check_int "count" 8 (Array.length toks);
  check_bool "module is Uident" true (toks.(3).kind = Token.Uident);
  check_string "dot" "." toks.(4).text;
  check_int "col of x" 5 toks.(1).col

let test_tok_nested_comment () =
  match kinds "(* outer (* inner *) still outer *) x" with
  | [ Token.Comment; Token.Ident ] -> ()
  | _ -> Alcotest.fail "nested comment should be one token"

let test_tok_string_in_comment () =
  (* a string inside a comment hides the "*)" it contains *)
  match kinds {|(* tricky " *) " end *) y|} with
  | [ Token.Comment; Token.Ident ] -> ()
  | _ -> Alcotest.fail {|string containing "*)" inside comment mis-lexed|}

let test_tok_comment_in_string () =
  (* comment openers inside string literals are just text *)
  match kinds {|let s = "(* not a comment *)"|} with
  | [ Token.Ident; Token.Ident; Token.Op; Token.String ] -> ()
  | _ -> Alcotest.fail "comment delimiters in string mis-lexed"

let test_tok_quoted_string () =
  let toks = Token.tokenize "let s = {q|raw \" (* |w} still |q} x" in
  check_bool "quoted string token" true
    (Array.exists (fun (t : Token.t) -> t.kind = Token.String && t.text = "{q|raw \" (* |w} still |q}") toks)

let test_tok_char_vs_tyvar () =
  (* 'a' is a char literal; 'a in a type annotation is not *)
  let toks = Token.tokenize "let c = 'a' let f (x : 'a) = x" in
  let chars =
    Array.to_list toks |> List.filter (fun (t : Token.t) -> t.kind = Token.Char)
  in
  check_int "exactly one char literal" 1 (List.length chars);
  check_string "char text" "'a'" (List.hd chars).text

let test_tok_escaped_char () =
  let toks = Token.tokenize {|let q = '\'' and n = '\n' and d = '\123'|} in
  let chars =
    Array.to_list toks
    |> List.filter (fun (t : Token.t) -> t.kind = Token.Char)
    |> List.map (fun (t : Token.t) -> t.text)
  in
  check_bool "escaped quote char" true (chars = [ {|'\''|}; {|'\n'|}; {|'\123'|} ])

let test_tok_char_in_comment () =
  (* '"' inside a comment must not open a string scan — the tokenizer
     would swallow the rest of the file *)
  (match kinds {|(* '"' *) x|} with
  | [ Token.Comment; Token.Ident ] -> ()
  | _ -> Alcotest.fail {|char literal '"' inside comment desynced tokenizer|});
  (* an apostrophe that is not a char literal stays harmless *)
  (match kinds "(* don't *) y" with
  | [ Token.Comment; Token.Ident ] -> ()
  | _ -> Alcotest.fail "apostrophe in comment mis-lexed");
  match kinds {|(* '\n' and '*' *) z|} with
  | [ Token.Comment; Token.Ident ] -> ()
  | _ -> Alcotest.fail "escaped char in comment mis-lexed"

let test_tok_deeply_nested_comment () =
  match kinds "(* a (* b (* c *) b *) a *) w (* (* '\"' *) ok *) v" with
  | [ Token.Comment; Token.Ident; Token.Comment; Token.Ident ] -> ()
  | _ -> Alcotest.fail "deeply nested comments mis-lexed"

let test_tok_line_numbers () =
  let toks = Token.tokenize "let a = 1\n\nlet b = 2" in
  let b = toks.(5) in
  check_string "ident b" "b" b.text;
  check_int "line of b" 3 b.line;
  check_int "col of b" 5 b.col

(* ------------------------------------------------------------------ *)
(* Rules: each must hit its seeded fixture and stay quiet on clean code *)
(* ------------------------------------------------------------------ *)

let test_no_global_random () =
  let fs = lint "let roll () = Random.int 6" in
  check_bool "hit" true (List.mem "no-global-random" (rules_hit fs));
  (* allowlisted inside lib/prng *)
  let fs = lint ~path:"lib/prng/rng.ml" "let x = Random.int 6" in
  check_bool "allowlisted in lib/prng" false (List.mem "no-global-random" (rules_hit fs));
  (* qualified or commented mentions are fine *)
  let fs = lint "(* Random.int would be wrong *) let x = My_random.int 6" in
  check_bool "comment + other module" false (List.mem "no-global-random" (rules_hit fs))

let test_no_poly_compare () =
  let hit src = List.mem "no-poly-compare" (rules_hit (lint src)) in
  check_bool "List.sort compare" true (hit "let s = List.sort compare xs");
  check_bool "Array.sort compare" true (hit "let () = Array.sort compare a");
  check_bool "List.sort_uniq compare" true (hit "let s = List.sort_uniq compare xs");
  check_bool "Stdlib.compare" true (hit "let s = List.sort Stdlib.compare xs");
  check_bool "parenthesized" true (hit "let s = List.sort (compare) xs");
  check_bool "labelled" true (hit "let s = ListLabels.sort ~cmp:compare xs");
  check_bool "Int.compare ok" false (hit "let s = List.sort Int.compare xs");
  check_bool "custom comparator ok" false (hit "let s = List.sort cmp_edge xs");
  check_bool "compare fn of module ok" false (hit "let s = List.sort Edge.compare xs");
  check_bool "unrelated compare ok" false (hit "let c = compare a b");
  let fs = lint "let s =\n  List.sort compare xs" in
  (match fs with
  | [ f ] -> check_int "line of finding" 2 f.line
  | _ -> Alcotest.fail "expected exactly one finding")

let test_no_poly_compare_in_lambda () =
  (* the gap that let the sweep sort comparator through: a lambda
     comparator whose body calls bare polymorphic compare *)
  let hit src = List.mem "no-poly-compare" (rules_hit (lint src)) in
  check_bool "lambda tuple compare" true
    (hit "let () = Array.sort (fun a b -> compare (x.(a), a) (x.(b), b)) arr");
  check_bool "lambda bare compare" true (hit "let s = List.sort (fun a b -> compare a b) xs");
  check_bool "lambda Stdlib.compare" true
    (hit "let s = List.sort (fun a b -> Stdlib.compare a b) xs");
  check_bool "lambda flipped compare" true (hit "let s = List.sort (fun a b -> compare b a) xs");
  check_bool "labelled lambda" true
    (hit "let s = ListLabels.sort ~cmp:(fun a b -> compare a b) xs");
  check_bool "function keyword" true
    (hit "let s = List.sort (function a -> fun b -> compare a b) xs");
  check_bool "monomorphic lambda ok" false
    (hit
       "let s =\n\
       \  Array.sort (fun a b ->\n\
       \      let c = Float.compare score.(a) score.(b) in\n\
       \      if c <> 0 then c else Int.compare a b) arr");
  check_bool "module compare in lambda ok" false
    (hit "let s = List.sort (fun a b -> Edge.compare a b) xs");
  check_bool "compare after close paren ok" false
    (hit "let s = List.sort (fun a b -> Int.compare a b) xs in let c = compare p q")

let test_no_catchall_exn () =
  let hit src = List.mem "no-catchall-exn" (rules_hit (lint src)) in
  check_bool "try with _" true (hit "let x = try f () with _ -> 0");
  check_bool "try with | _" true (hit "let x = try f () with | _ -> 0");
  check_bool "named exn ok" false (hit "let x = try f () with Not_found -> 0");
  check_bool "match wildcard ok" false (hit "let x = match v with _ -> 0");
  check_bool "nested match in try ok" false
    (hit "let x = try match v with _ -> g () with Not_found -> 0");
  check_bool "with-type constraint ok" false
    (hit "module M : S with type t = int = Impl")

let test_mli_required () =
  let fs = lint ~mli_exists:false "let x = 1" in
  check_bool "hit when missing" true (List.mem "mli-required" (rules_hit fs));
  let fs = lint ~mli_exists:true "let x = 1" in
  check_bool "quiet when present" false (List.mem "mli-required" (rules_hit fs));
  (* driver only sets mli_exists for lib; unset means not applicable *)
  let fs = lint "let x = 1" in
  check_bool "quiet when not applicable" false (List.mem "mli-required" (rules_hit fs))

let test_no_print_in_lib () =
  let hit ?path src = List.mem "no-print-in-lib" (rules_hit (lint ?path src)) in
  check_bool "print_endline in lib" true (hit "let () = print_endline \"hi\"");
  check_bool "Printf.printf in lib" true (hit "let () = Printf.printf \"%d\" 3");
  check_bool "Format.printf in lib" true (hit "let () = Format.printf \"%d\" 3");
  check_bool "sprintf ok" false (hit "let s = Printf.sprintf \"%d\" 3");
  check_bool "eprintf ok" false (hit "let () = Printf.eprintf \"%d\" 3");
  check_bool "bin may print" false (hit ~path:"bin/tool.ml" "let () = print_endline \"hi\"");
  check_bool "reporter allowlisted" false
    (hit ~path:"lib/stats/table.ml" "let () = print_endline \"hi\"")

let test_no_raw_timing () =
  let hit ?path src = List.mem "no-raw-timing" (rules_hit (lint ?path src)) in
  check_bool "Unix.gettimeofday" true (hit "let t = Unix.gettimeofday ()");
  check_bool "Sys.time" true (hit "let t = Sys.time ()");
  check_bool "Unix.time" true (hit "let t = Unix.time ()");
  check_bool "Unix.times" true (hit "let t = Unix.times ()");
  check_bool "bin is linted too" true (hit ~path:"bin/tool.ml" "let t = Sys.time ()");
  (* the benchmark subsystem gets no exemption: its whole point is
     that bench numbers come off the same monotone clock as spans *)
  check_bool "bench engine must use Clock" true
    (hit ~path:"lib/bench/measure.ml" "let t0 = Sys.time () in t0");
  check_bool "bench engine gettimeofday caught" true
    (hit ~path:"lib/bench/measure.ml" "let t0 = Unix.gettimeofday ()");
  check_bool "bench harness is linted too" true
    (hit ~path:"bench/main.ml" "let t = Unix.gettimeofday ()");
  check_bool "clock-routed bench code ok" false
    (hit ~path:"lib/bench/measure.ml" "let t0 = Fn_obs.Clock.now_ns ()");
  check_bool "allowlisted in lib/obs" false
    (hit ~path:"lib/obs/clock.ml" "let t = Unix.gettimeofday ()");
  check_bool "Fn_obs.Clock ok" false (hit "let t = Fn_obs.Clock.now_ns ()");
  check_bool "other Sys functions ok" false (hit "let a = Sys.argv");
  check_bool "qualified submodule ok" false (hit "let t = My.Unix.gettimeofday ()");
  check_bool "comment mention ok" false (hit "(* Unix.gettimeofday is banned *) let x = 1")

let test_no_exit_in_lib () =
  let hit ?path src = List.mem "no-exit-in-lib" (rules_hit (lint ?path src)) in
  check_bool "exit in lib" true (hit "let f bad = if bad then exit 1 else 0");
  check_bool "Stdlib.exit in lib" true (hit "let f () = Stdlib.exit 2");
  check_bool "let exit definition ok" false (hit "let exit sp = finish sp");
  check_bool "qualified Span.exit ok" false (hit "let () = Span.exit sp true");
  check_bool "bin may exit" false (hit ~path:"bin/tool.ml" "let () = exit 1");
  check_bool "test may exit" false (hit ~path:"test/t.ml" "let () = exit 1");
  check_bool "span.ml allowlisted" false
    (hit ~path:"lib/obs/span.ml" "let exit sp ok = record sp ok let f () = exit s true");
  check_bool "comment mention ok" false (hit "(* exit would be wrong *) let x = 1")

let test_no_raw_csr () =
  let hit ?path src = List.mem "no-raw-csr-outside-kernels" (rules_hit (lint ?path src)) in
  check_bool "Graph.xadj in lib" true (hit "let x = Graph.xadj g");
  check_bool "Graph.adj in lib" true (hit "let a = Graph.adj g");
  check_bool "qualified Fn_graph.Graph.adj caught" true
    (hit ~path:"bench/hot.ml" "let a = Fn_graph.Graph.adj g");
  check_bool "tests are linted too" true (hit ~path:"test/t.ml" "let a = Graph.adj g");
  check_bool "check.ml allowlisted" false
    (hit ~path:"lib/graph_core/check.ml" "let xadj = Graph.xadj g");
  check_bool "routing sim allowlisted" false
    (hit ~path:"lib/routing/sim.ml" "let a = Graph.adj g");
  check_bool "spectral matvec allowlisted" false
    (hit ~path:"lib/expansion/spectral_op.ml" "let rows = csr_rows (Graph.xadj g) (Graph.adj g)");
  check_bool "iter_neighbors ok" false (hit "let () = Graph.iter_neighbors g v f");
  check_bool "local adj binding ok" false (hit "let adj = neighbors g v");
  check_bool "other module's adj ok" false (hit "let a = Mesh.adj g");
  check_bool "comment mention ok" false (hit "(* Graph.xadj is banned *) let x = 1")

let test_no_gview_arm_match () =
  let hit ?path src = List.mem "no-gview-arm-match" (rules_hit (lint ?path src)) in
  check_bool "Implicit arm" true
    (hit "let f view = match view with Gview.Csr _ -> 1 | Gview.Implicit _ -> 2");
  check_bool "Csr arm with a wildcard" true
    (hit "let f view = match view with Gview.Csr g -> Graph.num_nodes g | _ -> 0");
  check_bool "function arm" true (hit "let f = function Gview.Csr _ -> 1 | _ -> 0");
  check_bool "qualified Fn_graph.Gview.Implicit caught" true
    (hit ~path:"bench/hot.ml" "let f = function Fn_graph.Gview.Implicit _ -> 1 | _ -> 0");
  check_bool "bare arm under an open" true
    (hit "let f view = Gview.(match view with Implicit _ -> 1 | Csr _ -> 0)");
  check_bool "tests are linted too" true
    (hit ~path:"test/t.ml" "let f = function Gview.Implicit _ -> 1 | _ -> 0");
  List.iter
    (fun path ->
      check_bool (path ^ " allowlisted") false
        (hit ~path "let f = function Gview.Csr _ -> 1 | Gview.Implicit _ -> 2"))
    [ "lib/graph_core/gview.ml"; "lib/expansion/spectral_op.ml"; "lib/percolation/newman_ziff.ml" ];
  (* the finder portfolio and alpha run one estimator on both arms *)
  List.iter
    (fun path ->
      check_bool (path ^ " flagged") true
        (hit ~path "let f = function Gview.Csr _ -> 1 | Gview.Implicit _ -> 2"))
    [ "lib/faultnet/low_expansion.ml"; "lib/online/alpha_cache.ml" ];
  check_bool "building a Csr view ok" false (hit "let v = Gview.Csr g");
  check_bool "Csr view as an arm's result ok" false
    (hit "let f = function Some g -> Gview.Csr g | None -> empty");
  check_bool "Implicit module path ok" false
    (hit "let v = Fn_topology.Implicit.torus [| 4; 4 |]");
  check_bool "smart constructor ok" false (hit "let v = Gview.implicit ~n ~max_degree:2 iter");
  check_bool "iter_neighbors ok" false
    (hit "let f view = let iter = Gview.iter_neighbors view in iter 0 ignore");
  check_bool "comment mention ok" false (hit "(* | Gview.Implicit i -> *) let x = 1")

let test_no_todo_naked () =
  let hit src = List.mem "no-todo-naked" (rules_hit (lint src)) in
  check_bool "naked TODO" true (hit "(* TODO handle overflow *) let x = 1");
  check_bool "naked FIXME" true (hit "(* FIXME *) let x = 1");
  check_bool "owned TODO ok" false (hit "(* TODO(alice) handle overflow *) let x = 1");
  check_bool "issue tag ok" false (hit "(* TODO: see #42 *) let x = 1");
  check_bool "TODO in code ident ok" false (hit "let todos = 1 let xTODO = 2");
  check_bool "severity is warning" true
    (match lint "(* TODO x *) let a = 1" with
    | [ f ] -> f.severity = Rule.Warning
    | _ -> false);
  (* multi-line comment: finding on the right line *)
  (match lint "(* line one\n   TODO fix me\n*) let a = 1" with
  | [ f ] -> check_int "line in multi-line comment" 2 f.line
  | _ -> Alcotest.fail "expected one finding")

(* ------------------------------------------------------------------ *)
(* Scope model                                                         *)
(* ------------------------------------------------------------------ *)

let scope_of src = Scope.build (Token.code (Token.tokenize src))

let first_closure root =
  let found = ref None in
  let rec go (s : Scope.t) =
    if !found = None then begin
      if s.kind = Scope.Closure then found := Some s
      else List.iter go s.children
    end
  in
  go root;
  match !found with Some s -> s | None -> Alcotest.fail "no closure found"

let test_scope_closure_binds () =
  let root = scope_of "let f xs = List.map (fun x -> x + offset) xs" in
  let c = first_closure root in
  let bound = Scope.bound_set c in
  check_bool "param bound" true (Hashtbl.mem bound "x");
  check_bool "capture not bound" false (Hashtbl.mem bound "offset")

let test_scope_captures () =
  let src = "let f total =\n  List.map (fun i ->\n    let local = i * 2 in\n    local + total + i) xs" in
  let c = first_closure (scope_of src) in
  let caps = List.map fst (Scope.captures (Token.code (Token.tokenize src)) c) in
  check_bool "total captured" true (List.mem "total" caps);
  check_bool "local not captured" false (List.mem "local" caps);
  check_bool "param not captured" false (List.mem "i" caps)

let test_scope_match_pattern_binds () =
  let src = "let f v = iter (fun x -> match x with Some y -> y + v | None -> 0) v" in
  let c = first_closure (scope_of src) in
  let bound = Scope.bound_set c in
  check_bool "pattern var bound" true (Hashtbl.mem bound "y");
  check_bool "outer capture visible" false (Hashtbl.mem bound "v")

let test_scope_innermost_binding () =
  (* the enclosing structure-level binding spans past nested closures,
     so a sort later in the same definition is inside its range *)
  let src =
    "let collect tbl =\n\
    \  let out = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in\n\
    \  List.sort compare out\n\n\
     let other = 1" in
  let code = Token.code (Token.tokenize src) in
  let root = Scope.build code in
  (* find the Hashtbl token index *)
  let at = ref (-1) in
  Array.iteri
    (fun i (t : Token.t) -> if !at < 0 && t.text = "Hashtbl" then at := i)
    code;
  let s = Scope.innermost_non_closure root !at in
  (match s.Scope.kind with
  | Scope.Binding name -> check_string "binding name" "collect" name
  | _ -> Alcotest.fail "expected a Binding scope");
  (* the next structure item is outside the binding *)
  let other = ref (-1) in
  Array.iteri
    (fun i (t : Token.t) -> if !other < 0 && t.text = "other" then other := i)
    code;
  check_bool "next item outside" false (Scope.contains s !other)

(* ------------------------------------------------------------------ *)
(* Scope-aware rules                                                   *)
(* ------------------------------------------------------------------ *)

let test_par_capture_mutation () =
  let hit src = List.mem "par-capture-mutation" (rules_hit (lint src)) in
  (* the acceptance-criteria seeded mutation: reintroduce the captured
     ref accumulator PR 5 removed from Estimate.run's Par.map closure *)
  check_bool "seeded Estimate.run regression" true
    (hit
       "let run ?alive g ~domains scores objective =\n\
       \  let acc = ref [] in\n\
       \  let sweeps =\n\
       \    Fn_parallel.Par.map ~obs ~domains\n\
       \      (fun score -> acc := Sweep.best_prefix ?alive g ~score objective :: !acc)\n\
       \      scores\n\
       \  in\n\
       \  ignore sweeps;\n\
       \  !acc");
  check_bool "captured ref int incr" true
    (hit "let f n = let c = ref 0 in Par.map (fun _ -> incr c) (idx n)");
  check_bool "captured hashtbl write" true
    (hit "let f tbl xs = Par.map (fun x -> Hashtbl.replace tbl x ()) xs");
  check_bool "field set" true
    (hit "let f t xs = Par.map (fun x -> t.count <- t.count + x) xs");
  check_bool "Domain.spawn closure" true
    (hit "let f c = Domain.spawn (fun () -> c := 1)");
  (* negatives *)
  check_bool "local ref ok" false
    (hit "let f xs = Par.map (fun x -> let c = ref 0 in c := x; !c) xs");
  check_bool "Atomic ok" false
    (hit "let f a xs = Par.map (fun x -> Atomic.incr a; x) xs");
  check_bool "mutex-guarded ok" false
    (hit
       "let f m c xs = Par.map (fun x -> Mutex.lock m; c := x; Mutex.unlock m) xs");
  check_bool "Pool.run disjoint slots ok" false
    (hit
       "let f pool slots = Par.Pool.run pool (fun w -> slots.(w) <- compute w)");
  check_bool "Par.map indexed write still flagged" true
    (hit "let f out xs = Par.map (fun i -> out.(i) <- i * 2) xs");
  check_bool "sequential closure ok" false
    (hit "let f c xs = List.iter (fun x -> c := x) xs")

let test_rng_unsplit_in_par () =
  let hit src = List.mem "rng-unsplit-in-par" (rules_hit (lint src)) in
  check_bool "captured rng" true
    (hit "let f ~rng xs = Par.map (fun x -> Fn_prng.Rng.int rng x) xs");
  check_bool "named trial_rng" true
    (hit "let f trial_rng n = Par.init n (fun i -> draw trial_rng i)");
  (* negatives: the blessed patterns *)
  check_bool "pre-split param ok" false
    (hit "let f ~rng n = Par.trials ~rng n (fun r -> Fn_prng.Rng.int r 10)");
  check_bool "indexed pre-split array ok" false
    (hit
       "let f ~rng n =\n\
       \  let rngs = Fn_prng.Rng.split_n rng n in\n\
       \  Par.init n (fun i -> Fn_prng.Rng.int rngs.(i) 10)");
  check_bool "label-only passthrough not in closure ok" false
    (hit "let f ~rng n job = Supervisor.trials ~rng n job")

let test_par_float_reduce () =
  let hit src = List.mem "par-float-reduce" (rules_hit (lint src)) in
  check_bool "captured float sum" true
    (hit "let f xs = let s = ref 0.0 in Par.map (fun x -> s := !s +. x) xs");
  check_bool "float product via field" true
    (hit "let f t xs = Par.map (fun x -> t.prod <- t.prod *. x) xs");
  (* negatives *)
  check_bool "reduce after join ok" false
    (hit
       "let f xs =\n\
       \  let parts = Par.map (fun x -> weight x) xs in\n\
       \  Array.fold_left ( +. ) 0.0 parts");
  check_bool "local float acc ok" false
    (hit "let f xs = Par.map (fun x -> let s = ref 0.0 in s := !s +. x; !s) xs");
  check_bool "int accumulation is capture rule's job" false
    (hit "let f c xs = Par.map (fun x -> c := !c + x) xs")

let test_hashtbl_order_dependence () =
  let hit src = List.mem "hashtbl-order-dependence" (rules_hit (lint src)) in
  check_bool "fold cons no sort" true
    (hit "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []");
  check_bool "fold float sum" true
    (hit "let total tbl = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.0");
  check_bool "iter into buffer" true
    (hit "let dump tbl buf = Hashtbl.iter (fun k _ -> Buffer.add_string buf k) tbl");
  check_bool "iter cons accumulation" true
    (hit "let keys tbl = let out = ref [] in Hashtbl.iter (fun k _ -> out := k :: !out) tbl; !out");
  (* negatives *)
  check_bool "fold cons then sort ok" false
    (hit
       "let keys tbl =\n\
       \  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare");
  check_bool "commutative max ok" false
    (hit "let peak tbl = Hashtbl.fold (fun _ v acc -> max acc v) tbl 0");
  check_bool "int counter iter ok" false
    (hit "let n tbl = let c = ref 0 in Hashtbl.iter (fun _ _ -> incr c) tbl; !c");
  check_bool "iter indexed writes ok" false
    (hit "let fill tbl out = Hashtbl.iter (fun k v -> out.(k) <- v) tbl")

let test_dls_outside_obs () =
  let hit ?path src = List.mem "dls-outside-obs" (rules_hit (lint ?path src)) in
  check_bool "DLS new_key in lib" true
    (hit "let key = Domain.DLS.new_key (fun () -> [])");
  check_bool "DLS get in bin" true
    (hit ~path:"bin/tool.ml" "let v = Domain.DLS.get key");
  (* negatives *)
  check_bool "lib/obs allowlisted" false
    (hit ~path:"lib/obs/span.ml" "let key = Domain.DLS.new_key (fun () -> [])");
  check_bool "other Domain functions ok" false
    (hit "let d = Domain.spawn (fun () -> 1) let n = Domain.recommended_domain_count ()");
  check_bool "comment mention ok" false (hit "(* Domain.DLS is banned *) let x = 1")

(* ------------------------------------------------------------------ *)
(* Suppression                                                         *)
(* ------------------------------------------------------------------ *)

let test_suppression_same_line () =
  let fs = lint "let s = List.sort compare xs (* lint: allow no-poly-compare *)" in
  check_int "suppressed" 0 (List.length fs)

let test_suppression_next_line () =
  let fs =
    lint
      "(* lint: allow no-poly-compare — generic helper, not hot *)\n\
       let s = List.sort compare xs"
  in
  check_int "suppressed" 0 (List.length fs)

let test_suppression_wrong_rule () =
  let fs = lint "let s = List.sort compare xs (* lint: allow no-global-random *)" in
  check_int "not suppressed by other rule" 1 (List.length fs)

let test_suppression_out_of_range () =
  let fs =
    lint "(* lint: allow no-poly-compare *)\nlet a = 1\nlet s = List.sort compare xs"
  in
  check_int "two lines below: not suppressed" 1 (List.length fs)

let test_suppression_multiple_rules () =
  let fs =
    lint
      "let s = List.sort compare xs |> ignore; Random.int 6 (* lint: allow \
       no-poly-compare no-global-random *)"
  in
  check_int "both suppressed" 0 (List.length fs)

let test_suppression_parse () =
  let toks = Token.tokenize "(* lint: allow no-poly-compare no-todo-naked justification *)" in
  match Engine.parse_suppression toks.(0) with
  | Some s ->
      check_bool "rules parsed" true (s.rules = [ "no-poly-compare"; "no-todo-naked"; "justification" ])
  | None -> Alcotest.fail "suppression not parsed"

(* ------------------------------------------------------------------ *)
(* Reporters                                                           *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_text_reporter () =
  let fs = lint ~path:"lib/x/y.ml" "let s =\n  List.sort compare xs" in
  let txt = Reporter.to_text fs in
  check_bool "file:line:col prefix" true (contains ~needle:"lib/x/y.ml:2:13:" txt);
  check_bool "severity" true (contains ~needle:"[error]" txt);
  check_bool "summary" true (contains ~needle:"1 error, 0 warnings" txt)

let test_json_reporter () =
  let fs =
    lint ~path:"lib/x/y.ml" "let s = List.sort compare xs\n(* TODO later *)"
  in
  let js = Reporter.to_json fs in
  check_bool "file field" true (contains ~needle:{|"file": "lib/x/y.ml"|} js);
  check_bool "line field" true (contains ~needle:{|"line": 1|} js);
  check_bool "rule field" true (contains ~needle:{|"rule": "no-poly-compare"|} js);
  check_bool "severity field" true (contains ~needle:{|"severity": "warning"|} js);
  check_bool "array brackets" true (js.[0] = '[' && contains ~needle:"]" js)

let test_json_empty () = check_string "empty array" "[]\n" (Reporter.to_json [])

let test_json_escape () =
  check_string "escapes" {|a\"b\\c\nd|} (Reporter.json_escape "a\"b\\c\nd")

(* ------------------------------------------------------------------ *)
(* Engine odds and ends                                                *)
(* ------------------------------------------------------------------ *)

let test_findings_sorted () =
  let fs =
    lint "let a = Random.int 6\nlet s = List.sort compare xs\nlet b = Random.bool ()"
  in
  let lines = List.map (fun (f : Rule.finding) -> f.line) fs in
  check_bool "sorted by line" true (lines = List.sort Int.compare lines);
  check_int "three findings" 3 (List.length fs)

let test_errors_filter () =
  let fs = lint "(* TODO x *) let s = List.sort compare xs" in
  check_int "total" 2 (List.length fs);
  check_int "errors only" 1 (List.length (Engine.errors fs))

let test_mli_not_linted_for_code_rules () =
  (* .mli files carry no code rules, but naked TODOs still warn *)
  let fs = lint ~path:"lib/x/y.mli" "val sort : unit\n(* TODO document *)" in
  check_bool "only todo rule" true (rules_hit fs = [ "no-todo-naked" ])

let () =
  Alcotest.run "lint"
    [
      ( "tokenizer",
        [
          Alcotest.test_case "basic" `Quick test_tok_basic;
          Alcotest.test_case "nested comment" `Quick test_tok_nested_comment;
          Alcotest.test_case "string in comment" `Quick test_tok_string_in_comment;
          Alcotest.test_case "comment in string" `Quick test_tok_comment_in_string;
          Alcotest.test_case "quoted string" `Quick test_tok_quoted_string;
          Alcotest.test_case "char vs tyvar" `Quick test_tok_char_vs_tyvar;
          Alcotest.test_case "escaped char" `Quick test_tok_escaped_char;
          Alcotest.test_case "char in comment" `Quick test_tok_char_in_comment;
          Alcotest.test_case "deeply nested comment" `Quick test_tok_deeply_nested_comment;
          Alcotest.test_case "line numbers" `Quick test_tok_line_numbers;
        ] );
      ( "scope",
        [
          Alcotest.test_case "closure binds" `Quick test_scope_closure_binds;
          Alcotest.test_case "captures" `Quick test_scope_captures;
          Alcotest.test_case "match pattern binds" `Quick test_scope_match_pattern_binds;
          Alcotest.test_case "innermost binding" `Quick test_scope_innermost_binding;
        ] );
      ( "scope-rules",
        [
          Alcotest.test_case "par-capture-mutation" `Quick test_par_capture_mutation;
          Alcotest.test_case "rng-unsplit-in-par" `Quick test_rng_unsplit_in_par;
          Alcotest.test_case "par-float-reduce" `Quick test_par_float_reduce;
          Alcotest.test_case "hashtbl-order-dependence" `Quick test_hashtbl_order_dependence;
          Alcotest.test_case "dls-outside-obs" `Quick test_dls_outside_obs;
        ] );
      ( "rules",
        [
          Alcotest.test_case "no-global-random" `Quick test_no_global_random;
          Alcotest.test_case "no-poly-compare" `Quick test_no_poly_compare;
          Alcotest.test_case "no-poly-compare in lambda" `Quick test_no_poly_compare_in_lambda;
          Alcotest.test_case "no-catchall-exn" `Quick test_no_catchall_exn;
          Alcotest.test_case "mli-required" `Quick test_mli_required;
          Alcotest.test_case "no-print-in-lib" `Quick test_no_print_in_lib;
          Alcotest.test_case "no-raw-timing" `Quick test_no_raw_timing;
          Alcotest.test_case "no-exit-in-lib" `Quick test_no_exit_in_lib;
          Alcotest.test_case "no-raw-csr-outside-kernels" `Quick test_no_raw_csr;
          Alcotest.test_case "no-gview-arm-match" `Quick test_no_gview_arm_match;
          Alcotest.test_case "no-todo-naked" `Quick test_no_todo_naked;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "same line" `Quick test_suppression_same_line;
          Alcotest.test_case "next line" `Quick test_suppression_next_line;
          Alcotest.test_case "wrong rule" `Quick test_suppression_wrong_rule;
          Alcotest.test_case "out of range" `Quick test_suppression_out_of_range;
          Alcotest.test_case "multiple rules" `Quick test_suppression_multiple_rules;
          Alcotest.test_case "parse" `Quick test_suppression_parse;
        ] );
      ( "reporters",
        [
          Alcotest.test_case "text" `Quick test_text_reporter;
          Alcotest.test_case "json" `Quick test_json_reporter;
          Alcotest.test_case "json empty" `Quick test_json_empty;
          Alcotest.test_case "json escape" `Quick test_json_escape;
        ] );
      ( "engine",
        [
          Alcotest.test_case "findings sorted" `Quick test_findings_sorted;
          Alcotest.test_case "errors filter" `Quick test_errors_filter;
          Alcotest.test_case "mli code rules off" `Quick test_mli_not_linted_for_code_rules;
        ] );
    ]
