open Fn_graph
open Faultnet
open Testutil

let rng () = Fn_prng.Rng.create 808

let test_prune_noop_on_clean_expander () =
  let g = Fn_topology.Expander.random_regular (rng ()) ~n:128 ~d:6 in
  let alive = Bitset.create_full 128 in
  let res = Prune.run ~rng:(rng ()) g ~alive ~alpha:0.5 ~epsilon:0.5 in
  check_int "nothing culled" 0 (Prune.total_culled res);
  check_int "all kept" 128 (Bitset.cardinal res.Prune.kept);
  check_bool "certificates" true (Prune.verify_certificates g ~alive res)

let test_prune_culls_disconnected_fragment () =
  (* an expander plus a dangling path: the path has terrible expansion
     and must be culled once a fault separates it *)
  let base = Fn_topology.Expander.random_regular (rng ()) ~n:64 ~d:4 in
  let b = Builder.create 74 in
  Graph.iter_edges base (fun u v -> Builder.add_edge b u v);
  for i = 64 to 72 do
    Builder.add_edge b i (i + 1)
  done;
  Builder.add_edge b 0 64;
  let g = Builder.to_graph b in
  (* fault the articulation node 64: the tail 65..73 disconnects *)
  let faults = Fn_faults.Fault_set.of_faulty_list 74 [ 64 ] in
  let res = Prune.run ~rng:(rng ()) g ~alive:faults.Fn_faults.Fault_set.alive ~alpha:0.5 ~epsilon:0.5 in
  check_bool "tail culled" true (Prune.total_culled res >= 9);
  check_bool "kept part is the expander" true (Bitset.cardinal res.Prune.kept >= 63);
  check_bool "certificates" true
    (Prune.verify_certificates g ~alive:faults.Fn_faults.Fault_set.alive res)

let test_prune_threshold_semantics () =
  (* path graph: with alpha*epsilon >= 1 every split is culled down to
     nothing (any prefix has boundary 1) *)
  let g = Fn_topology.Basic.path 16 in
  let alive = Bitset.create_full 16 in
  let res = Prune.run ~rng:(rng ()) g ~alive ~alpha:4.0 ~epsilon:0.5 in
  check_bool "aggressive threshold shreds the path" true (Bitset.cardinal res.Prune.kept <= 1);
  check_bool "certificates" true (Prune.verify_certificates g ~alive res)

let test_prune_parameter_validation () =
  let g = Fn_topology.Basic.path 4 in
  let alive = Bitset.create_full 4 in
  Alcotest.check_raises "alpha" (Invalid_argument "Prune.run: alpha must be positive")
    (fun () -> ignore (Prune.run g ~alive ~alpha:0.0 ~epsilon:0.5));
  Alcotest.check_raises "epsilon" (Invalid_argument "Prune.run: need 0 < epsilon < 1")
    (fun () -> ignore (Prune.run g ~alive ~alpha:1.0 ~epsilon:1.0));
  (* nan fails every comparison: the checks must refuse it too *)
  Alcotest.check_raises "nan alpha" (Invalid_argument "Prune.run: alpha must be positive")
    (fun () -> ignore (Prune.run g ~alive ~alpha:Float.nan ~epsilon:0.5));
  Alcotest.check_raises "nan epsilon" (Invalid_argument "Prune.run: need 0 < epsilon < 1")
    (fun () -> ignore (Prune.run g ~alive ~alpha:1.0 ~epsilon:Float.nan))

let test_prune_kept_culled_partition () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:6 in
  let faults = Fn_faults.Random_faults.nodes_iid (rng ()) g 0.15 in
  let alive = faults.Fn_faults.Fault_set.alive in
  let res = Prune.run ~rng:(rng ()) g ~alive ~alpha:0.17 ~epsilon:0.5 in
  (* kept ∪ culled = alive, disjoint *)
  let recon = Bitset.copy res.Prune.kept in
  List.iter
    (fun c ->
      check_bool "culled disjoint from kept" true (Bitset.disjoint c.Prune.set res.Prune.kept);
      Bitset.union_into recon c.Prune.set)
    res.Prune.culled;
  check_bool "partition" true (Bitset.equal recon alive);
  check_bool "certificates" true (Prune.verify_certificates g ~alive res)

let test_theorem21_bound_holds () =
  (* the E1 scenario in miniature, with the theorem's accounting *)
  let n = 256 in
  let g = Fn_topology.Expander.random_regular (rng ()) ~n ~d:6 in
  let alpha =
    (Fn_expansion.Estimate.run ~rng:(rng ()) g Fn_expansion.Cut.Node).Fn_expansion.Estimate.value
  in
  let k = 2.0 in
  let f = Theorem.thm21_max_faults ~alpha ~n ~k in
  let faults = Fn_faults.Adversary.random (rng ()) g ~budget:f in
  let alive = faults.Fn_faults.Fault_set.alive in
  let res = Prune.run ~rng:(rng ()) g ~alive ~alpha ~epsilon:(Theorem.thm21_epsilon ~k) in
  let kept = Bitset.cardinal res.Prune.kept in
  check_bool "size bound" true
    (float_of_int kept >= Theorem.thm21_min_kept ~alpha ~n ~k ~f -. 1e-9);
  check_bool "certificates" true (Prune.verify_certificates g ~alive res)

let test_verify_rejects_tampering () =
  let g = Fn_topology.Basic.path 16 in
  let alive = Bitset.create_full 16 in
  let res = Prune.run ~rng:(rng ()) g ~alive ~alpha:4.0 ~epsilon:0.5 in
  match res.Prune.culled with
  | [] -> Alcotest.fail "expected culls"
  | first :: _ ->
    (* tamper with a certificate *)
    let tampered = { res with Prune.culled = [ { first with Prune.boundary = first.Prune.boundary + 1 } ] } in
    check_bool "tampered rejected" false (Prune.verify_certificates g ~alive tampered)

let test_prune_idempotent () =
  (* once Prune stops, running it again on the survivor (same seed,
     same threshold) must cull nothing *)
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:6 in
  let faults = Fn_faults.Random_faults.nodes_iid (Fn_prng.Rng.create 3) g 0.2 in
  let alive = faults.Fn_faults.Fault_set.alive in
  let res = Prune.run ~rng:(Fn_prng.Rng.create 5) g ~alive ~alpha:0.17 ~epsilon:0.5 in
  let again =
    Prune.run ~rng:(Fn_prng.Rng.create 5) g ~alive:res.Prune.kept ~alpha:0.17 ~epsilon:0.5
  in
  check_int "no further culls" 0 (Prune.total_culled again);
  check_bool "kept unchanged" true (Bitset.equal res.Prune.kept again.Prune.kept)

let prop_prune_random_graphs_certify =
  prop "prune certificates verify on random graphs + faults" ~count:40
    (Testutil.gen_connected_graph ~max_n:14 ())
    (fun g ->
      let n = Graph.num_nodes g in
      let r = Fn_prng.Rng.create 17 in
      let faults = Fn_faults.Random_faults.nodes_iid r g 0.2 in
      let alive = faults.Fn_faults.Fault_set.alive in
      if Bitset.cardinal alive < 2 then true
      else begin
        let res = Prune.run ~rng:r g ~alive ~alpha:0.5 ~epsilon:0.5 in
        Prune.verify_certificates g ~alive res
        && Bitset.cardinal res.Prune.kept + Prune.total_culled res = Bitset.cardinal alive
        && n >= Bitset.cardinal res.Prune.kept
      end)

(* The run computes round boundaries through the incremental
   Boundary.Scratch; a naive replay with the allocating
   node_boundary_size must see the same numbers round for round. *)
let prop_round_boundaries_match_naive_replay =
  prop "recorded round boundaries equal a naive replay" ~count:40
    (Testutil.gen_connected_graph ~max_n:14 ())
    (fun g ->
      let r = Fn_prng.Rng.create 23 in
      let faults = Fn_faults.Random_faults.nodes_iid r g 0.25 in
      let alive = faults.Fn_faults.Fault_set.alive in
      if Bitset.cardinal alive < 2 then true
      else begin
        let res = Prune.run ~rng:r g ~alive ~alpha:0.5 ~epsilon:0.5 in
        let current = Bitset.copy alive in
        List.for_all
          (fun c ->
            let expected = Boundary.node_boundary_size ~alive:current (Gview.Csr g) c.Prune.set in
            let ok = expected = c.Prune.boundary in
            Bitset.diff_into current c.Prune.set;
            ok)
          res.Prune.culled
      end)

let test_domains_one_equals_default () =
  (* the ~domains:1 path must be the byte-identical sequential path *)
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:6 in
  let faults = Fn_faults.Random_faults.nodes_iid (Fn_prng.Rng.create 3) g 0.2 in
  let alive = faults.Fn_faults.Fault_set.alive in
  let a = Prune.run ~rng:(Fn_prng.Rng.create 5) g ~alive ~alpha:0.17 ~epsilon:0.5 in
  let b = Prune.run ~rng:(Fn_prng.Rng.create 5) ~domains:1 g ~alive ~alpha:0.17 ~epsilon:0.5 in
  check_bool "kept equal" true (Bitset.equal a.Prune.kept b.Prune.kept);
  check_int "same rounds" a.Prune.iterations b.Prune.iterations;
  check_bool "same certificates" true
    (List.for_all2
       (fun x y ->
         Bitset.equal x.Prune.set y.Prune.set
         && x.Prune.size = y.Prune.size
         && x.Prune.boundary = y.Prune.boundary)
       a.Prune.culled b.Prune.culled)

let test_report_summaries () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:6 in
  let alive = Bitset.create_full 36 in
  Bitset.remove alive 7;
  let res = Prune.run ~rng:(rng ()) g ~alive ~alpha:0.5 ~epsilon:0.5 in
  let text = Faultnet.Report.prune_summary g res in
  check_bool "kept count reported" true
    (String.starts_with ~prefix:(Printf.sprintf "Prune: kept %d nodes" (Bitset.cardinal res.Prune.kept)) text);
  (match Faultnet.Report.survivor_expansion g res.Prune.kept Fn_expansion.Cut.Node with
  | Some v -> check_bool "survivor expansion positive" true (v > 0.0)
  | None -> Alcotest.fail "a 35-node survivor has an expansion");
  check_bool "fewer than two survivors: none" true
    (Faultnet.Report.survivor_expansion g (Bitset.of_list 36 [ 0 ]) Fn_expansion.Cut.Node = None)

(* A traced Prune shows every finder solve: the default finder gets
   the run's sink.  The paper's pipeline then checks the survivor, which
   has the graph and mask of Prune's last finder call, so that estimate
   sweeps the memoized solve: the run's last estimate solved on the
   survivor's mask, and the survivor's own estimate opens no
   spectral.solve and says spectral_reused=true. *)
let test_traced_prune_then_survivor () =
  let open Fn_obs.Sink in
  let n = 256 in
  let g = Fn_topology.Expander.random_regular (rng ()) ~n ~d:6 in
  let alpha =
    (Fn_expansion.Estimate.run ~rng:(rng ()) g Fn_expansion.Cut.Node).Fn_expansion.Estimate.value
  in
  let k = 2.0 in
  let f = Theorem.thm21_max_faults ~alpha ~n ~k in
  let alive = (Fn_faults.Adversary.ball_isolation (rng ()) g ~budget:f).Fn_faults.Fault_set.alive in
  let sink, events = memory () in
  let res = Prune.run ~obs:sink ~rng:(rng ()) g ~alive ~alpha ~epsilon:(Theorem.thm21_epsilon ~k) in
  let kept = res.Prune.kept in
  check_bool "survivor past the exact finder" true (Bitset.cardinal kept > 18);
  ignore (Fn_expansion.Estimate.run ~obs:sink ~alive:kept g Fn_expansion.Cut.Node);
  let is kind name e =
    String.equal e.name name
    && match (kind, e.kind) with Enter, Enter | Exit, Exit -> true | _ -> false
  in
  let rec split before = function
    | [] -> (List.rev before, [])
    | e :: rest when is Exit "prune.run" e -> (List.rev (e :: before), rest)
    | e :: rest -> split (e :: before) rest
  in
  let during, after = split [] (events ()) in
  let count kind name l = List.length (List.filter (is kind name) l) in
  let last kind name l = List.fold_left (fun acc e -> if is kind name e then Some e else acc) None l in
  let field key e = Option.bind e (fun e -> List.assoc_opt key e.fields) in
  let run_id = Option.map (fun e -> e.id) (last Enter "prune.run" during) in
  check_bool "a run span" true (Option.is_some run_id);
  check_bool "the finder's solves are traced" true (count Enter "spectral.solve" during >= 1);
  check_bool "finder estimates nest in the run" true
    (List.for_all
       (fun e -> (not (is Enter "expansion.estimate" e)) || Some e.parent = run_id)
       during);
  check_bool "the last finder estimate solved" true
    (field "spectral_reused" (last Exit "expansion.estimate" during) = Some (Bool false));
  check_bool "on the survivor's mask" true
    (field "alive" (last Enter "expansion.estimate" during) = Some (Int (Bitset.cardinal kept)));
  check_int "the survivor opens no solve" 0 (count Enter "spectral.solve" after);
  check_bool "the survivor reuses it" true
    (field "spectral_reused" (last Exit "expansion.estimate" after) = Some (Bool true))

let () =
  Alcotest.run "prune"
    [
      ( "behaviour",
        [
          case "noop on clean expander" test_prune_noop_on_clean_expander;
          case "culls dangling fragment" test_prune_culls_disconnected_fragment;
          case "threshold semantics" test_prune_threshold_semantics;
          case "parameter validation" test_prune_parameter_validation;
          case "kept/culled partition" test_prune_kept_culled_partition;
          case "theorem 2.1 accounting" test_theorem21_bound_holds;
          case "verify rejects tampering" test_verify_rejects_tampering;
          case "idempotent" test_prune_idempotent;
          case "domains=1 equals default" test_domains_one_equals_default;
          case "report summaries" test_report_summaries;
          case "traced run, then its survivor" test_traced_prune_then_survivor;
        ] );
      ( "properties",
        [ prop_prune_random_graphs_certify; prop_round_boundaries_match_naive_replay ] );
    ]
