open Fn_graph
open Testutil

let test_empty_and_full () =
  let e = Bitset.create 100 in
  check_int "empty cardinal" 0 (Bitset.cardinal e);
  check_bool "is_empty" true (Bitset.is_empty e);
  let f = Bitset.create_full 100 in
  check_int "full cardinal" 100 (Bitset.cardinal f);
  check_bool "full not empty" false (Bitset.is_empty f);
  check_int "universe" 100 (Bitset.universe f)

let test_word_boundaries () =
  (* exercise sizes around the 63-bit word boundary *)
  List.iter
    (fun n ->
      let f = Bitset.create_full n in
      check_int (Printf.sprintf "full cardinal n=%d" n) n (Bitset.cardinal f);
      let c = Bitset.complement f in
      check_int (Printf.sprintf "complement of full n=%d" n) 0 (Bitset.cardinal c);
      for v = 0 to n - 1 do
        if not (Bitset.mem f v) then Alcotest.failf "missing %d of %d" v n
      done)
    [ 1; 62; 63; 64; 126; 127 ]

let test_add_remove () =
  let s = Bitset.create 10 in
  Bitset.add s 3;
  Bitset.add s 7;
  Bitset.add s 3;
  check_int "cardinal after dup add" 2 (Bitset.cardinal s);
  check_bool "mem 3" true (Bitset.mem s 3);
  check_bool "mem 4" false (Bitset.mem s 4);
  Bitset.remove s 3;
  check_bool "removed" false (Bitset.mem s 3);
  Bitset.set s 4 true;
  check_bool "set true" true (Bitset.mem s 4);
  Bitset.set s 4 false;
  check_bool "set false" false (Bitset.mem s 4)

let test_bounds_checked () =
  let s = Bitset.create 5 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of universe")
    (fun () -> ignore (Bitset.mem s (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index out of universe")
    (fun () -> Bitset.add s 5)

let test_iter_order () =
  let s = Bitset.of_list 200 [ 5; 190; 63; 64; 0 ] in
  check_bool "to_list sorted" true (Bitset.to_list s = [ 0; 5; 63; 64; 190 ])

let test_set_operations () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] in
  let b = Bitset.of_list 10 [ 3; 4 ] in
  let u = Bitset.copy a in
  Bitset.union_into u b;
  check_bool "union" true (Bitset.to_list u = [ 1; 2; 3; 4 ]);
  let i = Bitset.copy a in
  Bitset.inter_into i b;
  check_bool "inter" true (Bitset.to_list i = [ 3 ]);
  let d = Bitset.copy a in
  Bitset.diff_into d b;
  check_bool "diff" true (Bitset.to_list d = [ 1; 2 ]);
  check_bool "subset yes" true (Bitset.subset i a);
  check_bool "subset no" false (Bitset.subset a b);
  check_bool "disjoint no" false (Bitset.disjoint a b);
  check_bool "disjoint yes" true (Bitset.disjoint i (Bitset.of_list 10 [ 7 ]))

let test_choose () =
  check_bool "choose empty" true (Bitset.choose (Bitset.create 4) = None);
  check_bool "choose smallest" true (Bitset.choose (Bitset.of_list 9 [ 8; 2; 5 ]) = Some 2)

let test_universe_mismatch () =
  let a = Bitset.create 4 and b = Bitset.create 5 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: universe mismatch") (fun () ->
      Bitset.union_into a b)

let gen_int_set =
  QCheck2.Gen.(
    int_range 1 150 >>= fun n ->
    list_size (int_range 0 60) (int_range 0 (n - 1)) >>= fun xs -> return (n, xs))

let prop_roundtrip =
  prop "of_list/to_list is sorted dedup" gen_int_set (fun (n, xs) ->
      let s = Bitset.of_list n xs in
      Bitset.to_list s = List.sort_uniq Int.compare xs)

let prop_complement_involution =
  prop "complement twice is identity" gen_int_set (fun (n, xs) ->
      let s = Bitset.of_list n xs in
      Bitset.equal s (Bitset.complement (Bitset.complement s)))

let prop_cardinal_union_inter =
  prop "inclusion-exclusion" ~count:200
    QCheck2.Gen.(pair gen_int_set gen_int_set)
    (fun ((n1, xs), (n2, ys)) ->
      let n = max n1 n2 in
      let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
      let u = Bitset.copy a in
      Bitset.union_into u b;
      let i = Bitset.copy a in
      Bitset.inter_into i b;
      Bitset.cardinal u + Bitset.cardinal i = Bitset.cardinal a + Bitset.cardinal b)

let prop_fold_counts =
  prop "fold visits cardinal elements" gen_int_set (fun (n, xs) ->
      let s = Bitset.of_list n xs in
      Bitset.fold (fun _ acc -> acc + 1) s 0 = Bitset.cardinal s)

let test_next_member () =
  let s = Bitset.of_list 200 [ 0; 5; 62; 63; 64; 126; 199 ] in
  check_bool "from 0" true (Bitset.next_member s 0 = Some 0);
  check_bool "past a member" true (Bitset.next_member s 1 = Some 5);
  check_bool "word boundary" true (Bitset.next_member s 63 = Some 63);
  check_bool "across words" true (Bitset.next_member s 65 = Some 126);
  check_bool "last" true (Bitset.next_member s 199 = Some 199);
  check_bool "exhausted" true (Bitset.next_member s 200 = None);
  check_bool "empty" true (Bitset.next_member (Bitset.create 64) 0 = None);
  (* scanning by next_member enumerates exactly the members in order *)
  let rec scan from acc =
    match Bitset.next_member s from with
    | None -> List.rev acc
    | Some v -> scan (v + 1) (v :: acc)
  in
  check_bool "scan = to_list" true (scan 0 [] = Bitset.to_list s)

(* Bit-by-bit reference: every universe index probed with [mem], in
   increasing order, with no word arithmetic. *)
let naive_members s = List.filter (Bitset.mem s) (List.init (Bitset.universe s) Fun.id)

(* iter, fold and to_array against the reference.  The marks sit at
   both ends of the first word (bit 0, and bit 62, the sign bit of a
   native int), at both ends of the second (63 and 125) and at the
   last bit of the universe; a single-member set at every index walks
   each bit position of the halving search. *)
let test_iter_matches_naive () =
  let agree label s =
    let expect = naive_members s in
    let visited = ref [] in
    Bitset.iter (fun v -> visited := v :: !visited) s;
    check_bool (label ^ ": iter") true (List.rev !visited = expect);
    check_bool (label ^ ": fold") true (List.rev (Bitset.fold (fun v acc -> v :: acc) s []) = expect);
    check_bool (label ^ ": to_array") true (Array.to_list (Bitset.to_array s) = expect)
  in
  List.iter
    (fun n ->
      let marks = List.filter (fun v -> v < n) [ 0; 62; 63; 125; n - 1 ] in
      agree (Printf.sprintf "marks n=%d" n) (Bitset.of_list n marks);
      agree (Printf.sprintf "full n=%d" n) (Bitset.create_full n);
      let holes = Bitset.create_full n in
      List.iter (Bitset.remove holes) marks;
      agree (Printf.sprintf "full minus marks n=%d" n) holes;
      for v = 0 to n - 1 do
        agree (Printf.sprintf "singleton %d of %d" v n) (Bitset.of_list n [ v ])
      done)
    [ 1; 63; 64; 126; 127; 200 ]

let prop_iter_matches_naive =
  prop "iter and to_array equal the bit-by-bit reference" gen_int_set (fun (n, xs) ->
      let s = Bitset.of_list n xs in
      let visited = ref [] in
      Bitset.iter (fun v -> visited := v :: !visited) s;
      let expect = naive_members s in
      List.rev !visited = expect && Array.to_list (Bitset.to_array s) = expect)

let () =
  Alcotest.run "bitset"
    [
      ( "unit",
        [
          case "empty and full" test_empty_and_full;
          case "word boundaries" test_word_boundaries;
          case "add/remove" test_add_remove;
          case "bounds checked" test_bounds_checked;
          case "iter order" test_iter_order;
          case "iter/fold/to_array = bit-by-bit reference" test_iter_matches_naive;
          case "set operations" test_set_operations;
          case "choose" test_choose;
          case "next_member" test_next_member;
          case "universe mismatch" test_universe_mismatch;
        ] );
      ( "properties",
        [
          prop_roundtrip;
          prop_complement_involution;
          prop_cardinal_union_inter;
          prop_fold_counts;
          prop_iter_matches_naive;
        ] );
    ]
