open Fn_graph
open Fn_faults
open Testutil

let rng () = Fn_prng.Rng.create 555
let mesh8, _ = Fn_topology.Mesh.cube ~d:2 ~side:8

let test_fault_set_basics () =
  let fs = Fault_set.of_faulty_list 10 [ 1; 3; 5 ] in
  check_int "count" 3 (Fault_set.count fs);
  check_int "alive" 7 (Fault_set.alive_count fs);
  check_bool "faulty member" true (Bitset.mem fs.Fault_set.faulty 3);
  check_bool "alive member" true (Bitset.mem fs.Fault_set.alive 0);
  check_bool "partition" true (Bitset.disjoint fs.Fault_set.faulty fs.Fault_set.alive)

let test_fault_set_none_union () =
  let none = Fault_set.none 10 in
  check_int "none" 0 (Fault_set.count none)

let test_nodes_iid_extremes () =
  let r = rng () in
  let all = Random_faults.nodes_iid r mesh8 1.0 in
  check_int "p=1 all faulty" 64 (Fault_set.count all);
  let none = Random_faults.nodes_iid r mesh8 0.0 in
  check_int "p=0 none" 0 (Fault_set.count none);
  Alcotest.check_raises "bad p" (Invalid_argument "Random_faults.nodes_iid: p out of [0,1]")
    (fun () -> ignore (Random_faults.nodes_iid r mesh8 1.5));
  Alcotest.check_raises "nan p" (Invalid_argument "Random_faults.nodes_iid: p out of [0,1]")
    (fun () -> ignore (Random_faults.nodes_iid r mesh8 Float.nan))

let test_nodes_iid_rate () =
  let r = rng () in
  let total = ref 0 in
  for _ = 1 to 50 do
    total := !total + Fault_set.count (Random_faults.nodes_iid r mesh8 0.25)
  done;
  let mean = float_of_int !total /. 50.0 in
  check_float_eps 2.0 "empirical rate" 16.0 mean

let test_nodes_exact () =
  let r = rng () in
  let fs = Random_faults.nodes_exact r mesh8 10 in
  check_int "exact count" 10 (Fault_set.count fs)

(* ---- adversaries ---- *)

let test_adversary_random_budget () =
  let fs = Adversary.random (rng ()) mesh8 ~budget:12 in
  check_int "spends budget" 12 (Fault_set.count fs);
  Alcotest.check_raises "overdraft" (Invalid_argument "Adversary.random: bad budget")
    (fun () -> ignore (Adversary.random (rng ()) mesh8 ~budget:65))

let test_adversary_degree () =
  let star = Fn_topology.Basic.star 10 in
  let fs = Adversary.degree_targeted star ~budget:1 in
  check_bool "kills the hub" true (Bitset.mem fs.Fault_set.faulty 0);
  let comps = Components.compute ~alive:fs.Fault_set.alive (Gview.Csr star) in
  check_int "isolates all leaves" 9 comps.Components.count

let test_adversary_targets () =
  let fs = Adversary.targets mesh8 ~targets:[| 5; 6; 7 |] ~budget:2 in
  check_int "prefix only" 2 (Fault_set.count fs);
  check_bool "in order" true
    (Bitset.mem fs.Fault_set.faulty 5 && Bitset.mem fs.Fault_set.faulty 6);
  let fs = Adversary.targets mesh8 ~targets:[| 5 |] ~budget:10 in
  check_int "budget beyond targets" 1 (Fault_set.count fs)

let test_ball_isolation_disconnects () =
  (* enough budget to cut out a ball in the mesh *)
  let fs = Adversary.ball_isolation (rng ()) mesh8 ~budget:20 in
  check_bool "spent something" true (Fault_set.count fs > 0);
  let comps = Components.compute ~alive:fs.Fault_set.alive (Gview.Csr mesh8) in
  check_bool "disconnected the mesh" true (comps.Components.count >= 2)

let test_ball_isolation_zero_budget () =
  let fs = Adversary.ball_isolation (rng ()) mesh8 ~budget:0 in
  check_int "nothing possible" 0 (Fault_set.count fs)

let test_recursive_cut_fragments () =
  let epsilon = 0.125 in
  let res = Adversary.recursive_cut ~rng:(rng ()) mesh8 ~epsilon in
  let n = Graph.num_nodes mesh8 in
  List.iter
    (fun frag ->
      if float_of_int frag >= epsilon *. float_of_int n then
        Alcotest.failf "fragment %d above threshold" frag)
    res.Adversary.final_fragments;
  check_bool "steps recorded" true (List.length res.Adversary.steps > 0);
  (* accounting: faults = sum of removed in steps *)
  let removed = List.fold_left (fun acc s -> acc + s.Adversary.removed) 0 res.Adversary.steps in
  check_int "fault accounting" removed (Fault_set.count res.Adversary.faults)

let test_recursive_cut_refuses_nan () =
  Alcotest.check_raises "nan epsilon" (Invalid_argument "Adversary.recursive_cut: bad epsilon")
    (fun () -> ignore (Adversary.recursive_cut ~rng:(rng ()) mesh8 ~epsilon:Float.nan))

let test_recursive_cut_budget_respected () =
  let res = Adversary.recursive_cut ~rng:(rng ()) ~max_budget:5 mesh8 ~epsilon:0.125 in
  check_bool "budget respected" true (Fault_set.count res.Adversary.faults <= 5)

let test_churn_stationary () =
  check_float_eps 1e-9 "formula" 0.25
    (Churn.stationary_dead_fraction ~rate_fail:1.0 ~rate_repair:3.0);
  Alcotest.check_raises "bad rates"
    (Invalid_argument "Churn.stationary_dead_fraction: need rate_fail >= 0, rate_repair > 0")
    (fun () -> ignore (Churn.stationary_dead_fraction ~rate_fail:1.0 ~rate_repair:0.0))

let test_churn_occupancy () =
  (* long-run dead fraction matches the stationary value *)
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:8 in
  let snaps =
    Churn.simulate (rng ()) g ~rate_fail:0.2 ~rate_repair:0.8 ~horizon:200.0 ~snapshots:50
  in
  (* skip the burn-in: use the second half of the trajectory *)
  let late = List.filteri (fun i _ -> i >= 25) snaps in
  let mean_dead =
    List.fold_left (fun acc s -> acc +. float_of_int (Fault_set.count s.Churn.faults)) 0.0 late
    /. float_of_int (List.length late) /. 64.0
  in
  check_float_eps 0.06 "stationary occupancy" 0.2 mean_dead

let test_churn_snapshot_times () =
  let g = Fn_topology.Basic.path 4 in
  let snaps = Churn.simulate (rng ()) g ~rate_fail:1.0 ~rate_repair:1.0 ~horizon:10.0 ~snapshots:5 in
  check_int "count" 5 (List.length snaps);
  List.iteri
    (fun i s -> check_float_eps 1e-9 "evenly spaced" (2.0 *. float_of_int (i + 1)) s.Churn.time)
    snaps

let test_churn_starts_alive () =
  (* with a tiny horizon almost nothing has failed yet *)
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:8 in
  let snaps =
    Churn.simulate (rng ()) g ~rate_fail:0.001 ~rate_repair:10.0 ~horizon:0.01 ~snapshots:1
  in
  match snaps with
  | [ s ] -> check_bool "nearly all alive" true (Fault_set.count s.Churn.faults <= 1)
  | _ -> Alcotest.fail "expected one snapshot"

let test_churn_stationary_convergence () =
  (* average over many independent trajectories: the end-of-horizon dead
     fraction converges to rate_fail / (rate_fail + rate_repair) *)
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:8 in
  let rate_fail = 0.4 and rate_repair = 0.6 in
  let fracs =
    Fn_parallel.Par.trials ~domains:4 ~rng:(rng ()) 32 (fun r ->
        match
          Churn.simulate r g ~rate_fail ~rate_repair ~horizon:50.0 ~snapshots:1
        with
        | [ s ] -> float_of_int (Fault_set.count s.Churn.faults) /. 64.0
        | _ -> Alcotest.fail "expected one snapshot")
  in
  let mean = Array.fold_left ( +. ) 0.0 fracs /. 32.0 in
  check_float_eps 0.05 "converges to stationary dead fraction"
    (Churn.stationary_dead_fraction ~rate_fail ~rate_repair)
    mean

let test_churn_parallel_trajectories () =
  (* split-rng trials: churn trajectories do not depend on how many
     domains computed them *)
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:8 in
  let run domains =
    Fn_parallel.Par.trials ~domains ~rng:(rng ()) 8 (fun r ->
        Churn.simulate r g ~rate_fail:0.3 ~rate_repair:0.7 ~horizon:20.0 ~snapshots:10
        |> List.map (fun s ->
               (s.Churn.time, Bitset.to_list s.Churn.faults.Fault_set.faulty)))
  in
  check_bool "domains=1 = domains=4" true (run 1 = run 4)

(* nan fails every comparison: a nan rate or horizon must be refused,
   not simulated as a process that never flips *)
let test_churn_refuses_nan () =
  let g = Fn_topology.Basic.path 4 in
  let nan = Float.nan in
  let simulate ~rate_fail ~rate_repair ~horizon () =
    ignore (Churn.simulate (rng ()) g ~rate_fail ~rate_repair ~horizon ~snapshots:1)
  in
  Alcotest.check_raises "fail rate" (Invalid_argument "Churn.simulate: rates must be positive")
    (simulate ~rate_fail:nan ~rate_repair:1.0 ~horizon:1.0);
  Alcotest.check_raises "repair rate" (Invalid_argument "Churn.simulate: rates must be positive")
    (simulate ~rate_fail:1.0 ~rate_repair:nan ~horizon:1.0);
  Alcotest.check_raises "horizon" (Invalid_argument "Churn.simulate: horizon must be positive")
    (simulate ~rate_fail:1.0 ~rate_repair:1.0 ~horizon:nan);
  let stationary = "Churn.stationary_dead_fraction: need rate_fail >= 0, rate_repair > 0" in
  Alcotest.check_raises "stationary fail rate" (Invalid_argument stationary) (fun () ->
      ignore (Churn.stationary_dead_fraction ~rate_fail:nan ~rate_repair:1.0));
  Alcotest.check_raises "stationary repair rate" (Invalid_argument stationary) (fun () ->
      ignore (Churn.stationary_dead_fraction ~rate_fail:1.0 ~rate_repair:nan))

let test_churn_validation () =
  let g = Fn_topology.Basic.path 4 in
  Alcotest.check_raises "rates" (Invalid_argument "Churn.simulate: rates must be positive")
    (fun () -> ignore (Churn.simulate (rng ()) g ~rate_fail:0.0 ~rate_repair:1.0 ~horizon:1.0 ~snapshots:1));
  Alcotest.check_raises "horizon" (Invalid_argument "Churn.simulate: horizon must be positive")
    (fun () -> ignore (Churn.simulate (rng ()) g ~rate_fail:1.0 ~rate_repair:1.0 ~horizon:0.0 ~snapshots:1));
  Alcotest.check_raises "snapshots" (Invalid_argument "Churn.simulate: need at least one snapshot")
    (fun () -> ignore (Churn.simulate (rng ()) g ~rate_fail:1.0 ~rate_repair:1.0 ~horizon:1.0 ~snapshots:0))

let test_normalize_accepts_and_orders () =
  let faulty = Bitset.of_list 10 [ 7 ] in
  match Churn.normalize_batch ~n:10 ~faulty [ Churn.Fault 3; Churn.Repair 7; Churn.Fault 3 ] with
  | Ok evs ->
    (* f3 coalesces to its last occurrence, which follows r7 *)
    check_bool "order" true (evs = [ Churn.Repair 7; Churn.Fault 3 ])
  | Error e -> Alcotest.fail ("rejected: " ^ Churn.error_to_string e)

let test_normalize_rejects () =
  let faulty = Bitset.of_list 10 [ 7 ] in
  let expect name evs want =
    match Churn.normalize_batch ~n:10 ~faulty evs with
    | Ok _ -> Alcotest.fail (name ^ ": accepted")
    | Error e -> check_bool name true (e = want)
  in
  expect "out of range" [ Churn.Fault 10 ] (Churn.Out_of_range 10);
  expect "negative" [ Churn.Repair (-1) ] (Churn.Out_of_range (-1));
  expect "fault of faulty" [ Churn.Fault 7 ] (Churn.Fault_of_faulty 7);
  expect "repair of alive" [ Churn.Repair 3 ] (Churn.Repair_of_alive 3);
  (* coalescing consequence: f5 r5 on alive 5 survives as r5 *)
  expect "coalesced repair of alive" [ Churn.Fault 5; Churn.Repair 5 ]
    (Churn.Repair_of_alive 5);
  (* range errors come first, in input order *)
  expect "range before mask" [ Churn.Fault 7; Churn.Fault 99 ] (Churn.Out_of_range 99)

let test_normalize_then_apply () =
  let faulty = Bitset.of_list 10 [ 7; 8 ] in
  match
    Churn.normalize_batch ~n:10 ~faulty [ Churn.Repair 8; Churn.Fault 0; Churn.Fault 0 ]
  with
  | Error e -> Alcotest.fail (Churn.error_to_string e)
  | Ok evs ->
    check_int "coalesced" 2 (List.length evs);
    Churn.apply_batch ~faulty evs;
    check_bool "repaired" false (Bitset.mem faulty 8);
    check_bool "faulted" true (Bitset.mem faulty 0);
    check_bool "untouched" true (Bitset.mem faulty 7);
    check_int "mask size" 2 (Bitset.cardinal faulty)

let test_of_faulty_complements () =
  let fs = Fault_set.of_faulty 6 (Bitset.of_list 6 [ 1; 4 ]) in
  check_int "count" 2 (Fault_set.count fs);
  check_bool "alive is the complement" true
    (Bitset.to_list fs.Fault_set.alive = [ 0; 2; 3; 5 ])

let test_event_node () =
  check_int "fault" 7 (Churn.event_node (Churn.Fault 7));
  check_int "repair" 3 (Churn.event_node (Churn.Repair 3))

let () =
  Alcotest.run "faults"
    [
      ( "fault_set",
        [
          case "basics" test_fault_set_basics;
          case "none/union" test_fault_set_none_union;
        ] );
      ( "random",
        [
          case "iid extremes" test_nodes_iid_extremes;
          case "iid rate" test_nodes_iid_rate;
          case "exact count" test_nodes_exact;
        ] );
      ( "adversary",
        [
          case "random budget" test_adversary_random_budget;
          case "degree targeted" test_adversary_degree;
          case "targets" test_adversary_targets;
          case "ball isolation" test_ball_isolation_disconnects;
          case "ball zero budget" test_ball_isolation_zero_budget;
          case "recursive cut" test_recursive_cut_fragments;
          case "recursive budget" test_recursive_cut_budget_respected;
          case "recursive cut refuses nan" test_recursive_cut_refuses_nan;
        ] );
      ( "churn",
        [
          case "stationary formula" test_churn_stationary;
          case "occupancy" test_churn_occupancy;
          case "snapshot times" test_churn_snapshot_times;
          case "starts alive" test_churn_starts_alive;
          case "stationary convergence" test_churn_stationary_convergence;
          case "parallel trajectories" test_churn_parallel_trajectories;
          case "validation" test_churn_validation;
          case "normalize accepts and orders" test_normalize_accepts_and_orders;
          case "normalize rejects" test_normalize_rejects;
          case "normalize then apply" test_normalize_then_apply;
          case "nan refused" test_churn_refuses_nan;
          case "of_faulty complements" test_of_faulty_complements;
          case "event node" test_event_node;
        ] );
    ]
