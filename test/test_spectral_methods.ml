(* The spectral layer: the one matvec against a naive row formula,
   pinned Power bits, differential agreement of Lanczos against the
   bit-exact Power reference, seeded determinism and bit-stability
   across domains, the size policy and its explicit override, and the
   method-aware entry points (Gview path, metrics). *)

open Fn_graph
open Fn_expansion
open Testutil

let methods = [ Spectral.Method.Power; Spectral.Method.Lanczos ]

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Power needs headroom beyond its default 1000 iterations on the
   slow-mixing families (C64's eigenvalue ratio is ~0.993); Lanczos
   converges orders of magnitude sooner. *)
let power_ref ?alive g = Spectral.lambda2 ?alive ~method_:Spectral.Method.Power ~max_iter:20_000 (Gview.Csr g)

let families () =
  [
    ("cycle64", Fn_topology.Basic.cycle 64);
    ("mesh16x16", fst (Fn_topology.Mesh.graph [| 16; 16 |]));
    ("torus16x16", fst (Fn_topology.Torus.graph [| 16; 16 |]));
    ("hypercube6", Fn_topology.Hypercube.graph 6);
    ("expander512", Fn_topology.Expander.random_regular (Fn_prng.Rng.create 7) ~n:512 ~d:6);
    ("barbell8", Fn_topology.Basic.barbell 8);
  ]

let test_differential_families () =
  List.iter
    (fun (name, g) ->
      let reference = power_ref g in
      let r = Spectral.lambda2 ~method_:Spectral.Method.Lanczos ~max_iter:20_000 (Gview.Csr g) in
      check_float_eps 1e-6
        (Printf.sprintf "%s: lanczos lambda2 agrees with power" name)
        reference.Spectral.lambda2 r.Spectral.lambda2)
    (families ())

let post_prune_case () =
  (* the adversarial shape from the paper's pipeline: iid node faults
     on a mesh cube, then Prune's survivor mask *)
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:16 in
  let faults = Fn_faults.Random_faults.nodes_iid (Fn_prng.Rng.create 3) g 0.15 in
  let res =
    Faultnet.Prune.run ~rng:(Fn_prng.Rng.create 5) g
      ~alive:faults.Fn_faults.Fault_set.alive ~alpha:0.17 ~epsilon:0.5
  in
  (g, res.Faultnet.Prune.kept)

let test_differential_post_prune () =
  let g, kept = post_prune_case () in
  let reference = power_ref ~alive:kept g in
  let r =
    Spectral.lambda2 ~alive:kept ~method_:Spectral.Method.Lanczos ~max_iter:20_000 (Gview.Csr g)
  in
  check_float_eps 1e-6 "post-prune: lanczos agrees with power" reference.Spectral.lambda2
    r.Spectral.lambda2

let test_deterministic_reruns () =
  (* no Fn_prng state is drawn anywhere: the same call twice must give
     the same bits, for every backend *)
  let g = Fn_topology.Expander.random_regular (Fn_prng.Rng.create 11) ~n:400 ~d:6 in
  List.iter
    (fun m ->
      let a = Spectral.lambda2 ~method_:m (Gview.Csr g) in
      let b = Spectral.lambda2 ~method_:m (Gview.Csr g) in
      check_bool
        (Printf.sprintf "%s lambda2 bitwise deterministic" (Spectral.Method.to_string m))
        true
        (bits_equal a.Spectral.lambda2 b.Spectral.lambda2);
      check_bool
        (Printf.sprintf "%s fiedler bitwise deterministic" (Spectral.Method.to_string m))
        true
        (Array.for_all2 bits_equal a.Spectral.fiedler b.Spectral.fiedler))
    methods

let test_domains_bitwise_identical_per_method () =
  (* the chunked matvec contract extends to every backend: 1024 nodes
     clears the parallel threshold, and each matrix row's FP order is
     domain-count-independent *)
  let g = Fn_topology.Expander.random_regular (Fn_prng.Rng.create 99) ~n:1024 ~d:6 in
  List.iter
    (fun m ->
      let a = Spectral.lambda2 ~method_:m (Gview.Csr g) in
      List.iter
        (fun domains ->
          let b = Spectral.lambda2 ~method_:m ~domains (Gview.Csr g) in
          check_bool
            (Printf.sprintf "%s lambda2 bits equal, domains=%d"
               (Spectral.Method.to_string m) domains)
            true
            (bits_equal a.Spectral.lambda2 b.Spectral.lambda2);
          check_bool
            (Printf.sprintf "%s fiedler bits equal, domains=%d"
               (Spectral.Method.to_string m) domains)
            true
            (Array.for_all2 bits_equal a.Spectral.fiedler b.Spectral.fiedler))
        [ 2; 3; 4 ])
    methods

(* ---- the one matvec ---- *)

(* The operator's rows written out naively: for an alive node v with
   alive-degree d_v > 0, (M src)_v = src_v + (sum over alive neighbors
   w, in neighbor order, of src_w / sqrt d_w) / sqrt d_v; isolated
   alive nodes are identity rows and dead rows are 0.  Dead neighbors
   are skipped here, where the matvec adds an explicit 0 instead. *)
let naive_apply view alive src =
  let is_alive v = Bitset.mem alive v in
  let deg v =
    let d = ref 0 in
    Gview.iter_neighbors view v (fun w -> if is_alive w then incr d);
    !d
  in
  Array.init (Gview.num_nodes view) (fun v ->
      if not (is_alive v) then 0.0
      else begin
        let dv = deg v in
        if dv = 0 then src.(v)
        else begin
          let acc = ref 0.0 in
          Gview.iter_neighbors view v (fun w ->
              if is_alive w then acc := !acc +. (src.(w) /. sqrt (float_of_int (deg w))));
          src.(v) +. (!acc /. sqrt (float_of_int dv))
        end
      end)

(* 20% iid faults, then the whole neighborhood of three nodes killed:
   most rows keep a dead neighbor and those three are isolated alive
   nodes *)
let isolated = [ 0; 100; 517 ]

let matvec_mask view =
  let n = Gview.num_nodes view in
  let alive = Bitset.create_full n in
  let rng = Fn_prng.Rng.create 17 in
  for v = 0 to n - 1 do
    if Fn_prng.Rng.unit_float rng < 0.2 then Bitset.remove alive v
  done;
  List.iter
    (fun v ->
      Bitset.add alive v;
      Gview.iter_neighbors view v (fun w -> Bitset.remove alive w))
    isolated;
  alive

let test_matvec_matches_naive_rows () =
  (* n >= 1024 so domains 3 takes the pool path; the source has -0.0
     entries and mixed signs *)
  List.iter
    (fun (name, view) ->
      let n = Gview.num_nodes view in
      let mask = matvec_mask view in
      List.iter
        (fun v ->
          let alive_nbrs = ref 0 in
          Gview.iter_neighbors view v (fun w -> if Bitset.mem mask w then incr alive_nbrs);
          check_bool (name ^ ": isolated alive node") true
            (Bitset.mem mask v && !alive_nbrs = 0))
        isolated;
      let src =
        Array.init n (fun i -> if i mod 7 = 0 then -0.0 else cos (float_of_int (i * 7919)))
      in
      List.iter
        (fun (mask_name, alive, naive_mask) ->
          let expected = naive_apply view naive_mask src in
          let expected2 = naive_apply view naive_mask expected in
          List.iter
            (fun domains ->
              let op = Spectral_op.create ?alive ~domains view in
              let got = Array.make n nan and got2 = Array.make n nan in
              let c, c2 =
                Spectral_op.with_apply op (fun apply ->
                    let c = apply src got in
                    (c, apply got got2))
              in
              let label = Printf.sprintf "%s %s domains=%d" name mask_name domains in
              check_bool (label ^ ": M src bits") true (Array.for_all2 bits_equal expected got);
              check_bool (label ^ ": M (M src) bits") true
                (Array.for_all2 bits_equal expected2 got2);
              (* the coefficient the matvec returns is the separate
                 index-order dot against v1, on the sequential and the
                 pooled path alike *)
              check_bool (label ^ ": returned M src . v1 bits") true
                (bits_equal c (Spectral_op.dot op got op.Spectral_op.v1));
              check_bool (label ^ ": returned M (M src) . v1 bits") true
                (bits_equal c2 (Spectral_op.dot op got2 op.Spectral_op.v1)))
            [ 1; 3 ])
        [ ("masked", Some mask, mask); ("unmasked", None, Bitset.create_full n) ])
    [
      ("csr mesh32x33", Gview.Csr (fst (Fn_topology.Mesh.graph [| 32; 33 |])));
      ("implicit torus32x32", Fn_topology.Implicit.torus [| 32; 32 |]);
    ]

(* the row loops index without bounds checks; [apply] guards them *)
let test_matvec_rejects_wrong_length () =
  let op = Spectral_op.create (Gview.Csr (Fn_topology.Basic.cycle 8)) in
  let expected = Invalid_argument "Spectral_op.apply: vector length <> n" in
  Spectral_op.with_apply op (fun apply ->
      Alcotest.check_raises "short source" expected (fun () ->
          ignore (apply (Array.make 7 1.0) (Array.make 8 0.0)));
      Alcotest.check_raises "long destination" expected (fun () ->
          ignore (apply (Array.make 8 1.0) (Array.make 9 0.0))))

(* FNV-1a over the IEEE bits of every entry, in order *)
let fnv_bits arrays =
  let h = ref 0xcbf29ce484222325L in
  List.iter
    (Array.iter (fun x ->
         let b = Int64.bits_of_float x in
         for k = 0 to 7 do
           let byte = Int64.logand (Int64.shift_right_logical b (8 * k)) 0xffL in
           h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
         done))
    arrays;
  !h

(* Bits of Power's lambda2 as the naive row formula above computes
   them, run to (or near) the 1000-matvec budget: a matvec that moved
   any bit of any row would move these.  The two-vector solve shares
   the first vector, so it gives the same lambda2 bits; its
   first-vector iteration count and a hash of both embeddings are
   pinned too.  The second vector is deflated against v1 and then y1,
   so a Power pass that reordered or dropped either projection would
   move the hash. *)
let pinned_mesh () =
  let mesh = fst (Fn_topology.Mesh.graph [| 32; 32 |]) in
  let faults = Fn_faults.Random_faults.nodes_iid (Fn_prng.Rng.create 3) mesh 0.15 in
  (faults.Fn_faults.Fault_set.alive, Gview.Csr mesh)

let pinned_torus () =
  let torus = Fn_topology.Implicit.torus [| 32; 32 |] in
  let n = Gview.num_nodes torus in
  let alive = Bitset.create_full n in
  let rng = Fn_prng.Rng.create 5 in
  for v = 0 to n - 1 do
    if Fn_prng.Rng.unit_float rng < 0.1 then Bitset.remove alive v
  done;
  (alive, torus)

(* [converged] is pinned with the bits: the torus stops on the L1 test
   at 991 steps; the faulty mesh is still short of [tol] at 5,000 *)
let test_power_bits_pinned () =
  let check ?alive ?domains name (lambda2, iterations, hash, converged) view =
    let one = Spectral.lambda2 ?alive ?domains ~method_:Spectral.Method.Power view in
    let r, f2 = Spectral.solve ?alive ?domains ~method_:Spectral.Method.Power view in
    Alcotest.(check int64) (name ^ ": lambda2 bits") lambda2
      (Int64.bits_of_float one.Spectral.lambda2);
    Alcotest.(check int64) (name ^ ": solve lambda2 bits") lambda2
      (Int64.bits_of_float r.Spectral.lambda2);
    check_int (name ^ ": solve iterations") iterations r.Spectral.iterations;
    Alcotest.(check int64) (name ^ ": solve embeddings hash") hash
      (fnv_bits [ r.Spectral.fiedler; f2 ]);
    check_bool (name ^ ": lambda2 converged") converged one.Spectral.converged;
    check_bool (name ^ ": solve converged") converged r.Spectral.converged
  in
  check "torus16x16"
    (4585645878780073376L, 991, -9098451656385512106L, true)
    (Gview.Csr (fst (Fn_topology.Torus.graph [| 16; 16 |])));
  let alive, mesh = pinned_mesh () in
  check ~alive "mesh32x32, 15% faults"
    (4567408391909454336L, 1000, -4584612307086898449L, false)
    mesh;
  let r = Spectral.lambda2 ~alive ~method_:Spectral.Method.Power ~max_iter:5000 mesh in
  check_bool "mesh32x32, 15% faults: not converged at 5000 steps" false r.Spectral.converged;
  let alive, torus = pinned_torus () in
  check ~alive ~domains:3 "implicit torus32x32, 10% faults, domains 3"
    (4576195513252368640L, 1000, 337727919610733217L, false)
    torus

(* Lanczos's bits, pinned across builds like Power's: lambda2, the
   operator applications and a hash of both embeddings, at one and
   three domains (both views have >= 1024 nodes, so three domains run
   the pooled matvec).  A reassociated v1 projection in its
   Gram-Schmidt pass, or a moved matvec bit, would move them. *)
let test_lanczos_bits_pinned () =
  List.iter
    (fun (name, (alive, view), (lambda2, applies, hash)) ->
      List.iter
        (fun domains ->
          let label = Printf.sprintf "%s, domains %d" name domains in
          let r, f2 = Spectral.solve ~alive ~domains ~method_:Spectral.Method.Lanczos view in
          Alcotest.(check int64) (label ^ ": lambda2 bits") lambda2
            (Int64.bits_of_float r.Spectral.lambda2);
          check_int (label ^ ": applies") applies r.Spectral.iterations;
          Alcotest.(check int64) (label ^ ": embeddings hash") hash
            (fnv_bits [ r.Spectral.fiedler; f2 ]))
        [ 1; 3 ])
    [
      ("mesh32x32, 15% faults", pinned_mesh (), (4566750508827007488L, 323, 5442962529299687156L));
      ( "implicit torus32x32, 10% faults",
        pinned_torus (),
        (4575720024580304128L, 355, 1906687270373930853L) );
    ]

(* the backend a solve ran, as its exit span names it *)
let method_of_span events =
  List.find_map
    (fun e ->
      if e.Fn_obs.Sink.kind = Fn_obs.Sink.Exit then
        List.find_map
          (fun (k, v) -> match v with Fn_obs.Sink.Str s when k = "method" -> Some s | _ -> None)
          e.Fn_obs.Sink.fields
      else None)
    events

let test_size_selection () =
  let open Spectral.Method in
  check_bool "small selects power" true (select ~n_alive:100 = Power);
  check_bool "below threshold stays power" true
    (select ~n_alive:(power_max_nodes - 1) = Power);
  check_bool "threshold selects lanczos" true (select ~n_alive:power_max_nodes = Lanczos);
  check_bool "large selects lanczos" true (select ~n_alive:200_000 = Lanczos);
  (* an explicit ?method_ overrides the size policy on both sides of
     the threshold, through both entry points: the Power/Lanczos
     differential tests and bench kernels rely on it *)
  let side = int_of_float (ceil (sqrt (float_of_int power_max_nodes))) in
  let small = Gview.Csr (Fn_topology.Basic.cycle 64) in
  let large = Fn_topology.Implicit.torus [| side; side |] in
  List.iter
    (fun (entry, solve) ->
      let run method_ ~max_iter view =
        let sink, events = Fn_obs.Sink.memory () in
        let r = solve ~obs:sink method_ ~max_iter view in
        (r, method_of_span (events ()))
      in
      let label s = entry ^ ": " ^ s in
      let default, m = run None ~max_iter:20_000 small in
      check_bool (label "small default runs power") true (m = Some "power");
      let lanczos, m = run (Some Lanczos) ~max_iter:20_000 small in
      check_bool (label "explicit lanczos runs lanczos below the threshold") true
        (m = Some "lanczos");
      check_bool (label "explicit lanczos needs fewer applies than power") true
        (lanczos.Spectral.iterations < default.Spectral.iterations);
      let default, m = run None ~max_iter:2 large in
      check_bool (label "large default runs lanczos") true (m = Some "lanczos");
      let power, m = run (Some Power) ~max_iter:2 large in
      check_bool (label "explicit power runs power at the threshold") true (m = Some "power");
      check_bool (label "explicit power's embedding differs from lanczos'") false
        (Array.for_all2 bits_equal power.Spectral.fiedler default.Spectral.fiedler))
    [
      ("lambda2", fun ~obs method_ ~max_iter v -> Spectral.lambda2 ~obs ?method_ ~max_iter v);
      ( "solve",
        fun ~obs method_ ~max_iter v -> fst (Spectral.solve ~obs ?method_ ~max_iter v) );
    ]

let test_implicit_view_spectral_path () =
  (* the Gview capability: an implicit torus gets the same lambda2 as
     its materialized CSR, for both backends *)
  let implicit = Fn_topology.Implicit.torus [| 12; 12 |] in
  let csr, _ = Fn_topology.Torus.graph [| 12; 12 |] in
  let reference = power_ref csr in
  List.iter
    (fun m ->
      let r = Spectral.lambda2 ~method_:m ~max_iter:20_000 implicit in
      check_float_eps 1e-6
        (Printf.sprintf "implicit torus %s agrees" (Spectral.Method.to_string m))
        reference.Spectral.lambda2 r.Spectral.lambda2)
    methods

let test_solve_histogram_observes_total () =
  (* regression for the satellite bugfix: the spectral.iterations
     histogram used to observe only the first vector's count while the
     span reported it1 + it2 — the observed value must now exceed
     result.iterations (which stays it1 for Power) *)
  let g = Fn_topology.Basic.cycle 32 in
  let h =
    Fn_obs.Metrics.histogram
      ~buckets:[| 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1000.0 |]
      "spectral.iterations"
  in
  let sum_before = Fn_obs.Metrics.histogram_sum h in
  let count_before = Fn_obs.Metrics.histogram_count h in
  let sink, events = Fn_obs.Sink.memory () in
  let r, _ = Spectral.solve ~obs:sink (Gview.Csr g) in
  let observed = Fn_obs.Metrics.histogram_sum h -. sum_before in
  check_int "one observation" 1 (Fn_obs.Metrics.histogram_count h - count_before);
  check_bool "histogram observes more than the first vector's count" true
    (observed > float_of_int r.Spectral.iterations);
  (* and it agrees with what the span reports *)
  let span_total =
    List.find_map
      (fun e ->
        if e.Fn_obs.Sink.kind = Fn_obs.Sink.Exit && e.Fn_obs.Sink.name = "spectral.solve"
        then
          List.find_map
            (fun (k, v) ->
              match v with Fn_obs.Sink.Int i when k = "iterations" -> Some i | _ -> None)
            e.Fn_obs.Sink.fields
        else None)
      (events ())
  in
  match span_total with
  | Some total -> check_float_eps 1e-9 "histogram total = span total" (float_of_int total) observed
  | None -> Alcotest.fail "no spectral.solve exit span recorded"

let test_operator_alive_count () =
  let g = Fn_topology.Basic.cycle 10 in
  check_int "no mask" 10 (Spectral_op.alive_count (Spectral_op.create (Gview.Csr g)));
  let alive = Bitset.of_list 10 [ 0; 3; 4; 9 ] in
  check_int "masked" 4 (Spectral_op.alive_count (Spectral_op.create ~alive (Gview.Csr g)))

let () =
  Alcotest.run "spectral_methods"
    [
      ( "matvec",
        [
          case "matches naive rows" test_matvec_matches_naive_rows;
          case "rejects wrong lengths" test_matvec_rejects_wrong_length;
          case "power bits pinned" test_power_bits_pinned;
          case "lanczos bits pinned" test_lanczos_bits_pinned;
        ] );
      ( "differential",
        [
          case "generator families" test_differential_families;
          case "post-prune mask" test_differential_post_prune;
          case "implicit view path" test_implicit_view_spectral_path;
        ] );
      ( "determinism",
        [
          case "bitwise reruns" test_deterministic_reruns;
          case "domains bit-stability" test_domains_bitwise_identical_per_method;
        ] );
      ( "registry",
        [
          case "size selection" test_size_selection;
          case "histogram observes total iterations" test_solve_histogram_observes_total;
          case "operator alive count" test_operator_alive_count;
        ] );
    ]
