open Fn_graph
open Testutil

let mesh3, _ = Fn_topology.Mesh.cube ~d:2 ~side:3

let test_string_roundtrip () =
  let s = Gio.to_edge_list_string mesh3 in
  let g = Gio.of_edge_list_string s in
  check_bool "roundtrip equal" true (Graph.equal mesh3 g)

let test_header_isolated_nodes () =
  (* header preserves isolated nodes that no edge mentions *)
  let g = Graph.of_edges 5 [ (0, 1) ] in
  let g' = Gio.of_edge_list_string (Gio.to_edge_list_string g) in
  check_int "isolated preserved" 5 (Graph.num_nodes g')

let test_headerless () =
  let g = Gio.of_edge_list_string "0 1\n1 2\n" in
  check_int "inferred nodes" 3 (Graph.num_nodes g);
  check_int "edges" 2 (Graph.num_edges g)

let test_comments_and_blanks () =
  let g = Gio.of_edge_list_string "# a comment\n\n0 1\n# another\n1 2\n\n" in
  check_int "edges" 2 (Graph.num_edges g)

let test_malformed () =
  Alcotest.check_raises "bad token" (Failure "Gio: bad edge on line 1: \"0 x\"") (fun () ->
      ignore (Gio.of_edge_list_string "0 x"));
  Alcotest.check_raises "bad arity" (Failure "Gio: bad line 1: \"0 1 2\"") (fun () ->
      ignore (Gio.of_edge_list_string "0 1 2"))

let test_file_roundtrip () =
  let path = Filename.temp_file "faultnet" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gio.save path mesh3;
      let g = Gio.load path in
      check_bool "file roundtrip" true (Graph.equal mesh3 g))

let prop_roundtrip =
  prop "string roundtrip for arbitrary graphs" (Testutil.gen_any_graph ~max_n:15 ())
    (fun g -> Graph.equal g (Gio.of_edge_list_string (Gio.to_edge_list_string g)))

let () =
  Alcotest.run "gio"
    [
      ( "unit",
        [
          case "string roundtrip" test_string_roundtrip;
          case "isolated nodes" test_header_isolated_nodes;
          case "headerless" test_headerless;
          case "comments/blanks" test_comments_and_blanks;
          case "malformed" test_malformed;
          case "file roundtrip" test_file_roundtrip;
        ] );
      ("properties", [ prop_roundtrip ]);
    ]
