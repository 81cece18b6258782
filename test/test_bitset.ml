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

(* cardinal against a loop over the bits.  One-word sets use all 63
   bits of the word, so the per-word count sees the sign bit (bit 62)
   alone and with others, all ones, alternating patterns and random
   words drawn over the whole native-int range; multi-word universes
   end on a partial or a full word. *)
let test_cardinal_matches_bit_loop () =
  let bits_of w = List.filter (fun i -> (w lsr i) land 1 = 1) (List.init 63 Fun.id) in
  let rng = Fn_prng.Rng.create 0xB175 in
  let random_word () = Int64.to_int (Fn_prng.Rng.bits64 rng) in
  let words =
    [ 0; 1; -1; min_int; max_int; min_int lor 1; 0x1555_5555_5555_5555; 0x2AAA_AAAA_AAAA_AAAA;
      0x0F0F_0F0F_0F0F_0F0F; 1 lsl 61 ]
    @ List.init 62 (fun i -> 1 lsl i)
    @ List.init 500 (fun _ -> random_word ())
  in
  List.iter
    (fun w ->
      let bits = bits_of w in
      check_int (Printf.sprintf "cardinal %x" w) (List.length bits)
        (Bitset.cardinal (Bitset.of_list 63 bits)))
    words;
  List.iter
    (fun n ->
      let members =
        List.init ((n + 62) / 63) (fun k ->
            List.filter_map
              (fun i -> if (63 * k) + i < n then Some ((63 * k) + i) else None)
              (bits_of (random_word ())))
        |> List.concat
      in
      check_int (Printf.sprintf "cardinal n=%d" n) (List.length members)
        (Bitset.cardinal (Bitset.of_list n members)))
    [ 64; 126; 127; 200; 252; 300 ]

(* select against to_array on every universe size from 1 to 300 bits
   (so 1 to 5 words, full last words at 63, 126, 189 and 252 bits):
   full, marked (bit 62 and the word edges) and random sets of three
   densities; ranks outside [0, cardinal) raise. *)
let test_select_matches_to_array () =
  let rng = Fn_prng.Rng.create 0x5E1E in
  let agree label s =
    let arr = Bitset.to_array s in
    Array.iteri
      (fun r v -> check_int (Printf.sprintf "%s: select %d" label r) v (Bitset.select s r))
      arr;
    Alcotest.check_raises (label ^ ": rank = cardinal")
      (Invalid_argument "Bitset.select: rank beyond cardinal") (fun () ->
        ignore (Bitset.select s (Array.length arr)));
    Alcotest.check_raises (label ^ ": negative rank")
      (Invalid_argument "Bitset.select: negative rank") (fun () -> ignore (Bitset.select s (-1)))
  in
  for n = 1 to 300 do
    agree (Printf.sprintf "full n=%d" n) (Bitset.create_full n);
    agree (Printf.sprintf "empty n=%d" n) (Bitset.create n);
    let marks = List.filter (fun v -> v < n) [ 0; 61; 62; 63; 125; 126; n - 1 ] in
    agree (Printf.sprintf "marks n=%d" n) (Bitset.of_list n marks);
    List.iter
      (fun p ->
        let s = Bitset.create n in
        for v = 0 to n - 1 do
          if Fn_prng.Rng.bernoulli rng p then Bitset.add s v
        done;
        agree (Printf.sprintf "random p=%g n=%d" p n) s)
      [ 0.1; 0.5; 0.9 ]
  done

let prop_iter_matches_naive =
  prop "iter and to_array equal the bit-by-bit reference" gen_int_set (fun (n, xs) ->
      let s = Bitset.of_list n xs in
      let visited = ref [] in
      Bitset.iter (fun v -> visited := v :: !visited) s;
      let expect = naive_members s in
      List.rev !visited = expect && Array.to_list (Bitset.to_array s) = expect)

let test_clear () =
  let s = Bitset.of_list 130 [ 0; 64; 129 ] in
  Bitset.clear s;
  check_int "empty" 0 (Bitset.cardinal s);
  check_int "universe kept" 130 (Bitset.universe s);
  Bitset.add s 5;
  check_bool "usable after clear" true (Bitset.to_list s = [ 5 ])

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
          case "cardinal = bit loop" test_cardinal_matches_bit_loop;
          case "select = to_array" test_select_matches_to_array;
          case "set operations" test_set_operations;
          case "choose" test_choose;
          case "next_member" test_next_member;
          case "universe mismatch" test_universe_mismatch;
          case "clear" test_clear;
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
