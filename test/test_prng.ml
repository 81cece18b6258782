open Fn_prng
open Testutil

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    if Rng.bits64 a <> Rng.bits64 b then Alcotest.fail "same seed, different stream"
  done;
  let c = Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 c then differs := true
  done;
  check_bool "different seeds differ" true !differs

let test_copy_independent () =
  let a = Rng.create 1 in
  let b = Rng.copy a in
  let va = Rng.bits64 a in
  let vb = Rng.bits64 b in
  check_bool "copy continues identically" true (va = vb);
  ignore (Rng.bits64 a);
  let va2 = Rng.bits64 a and vb2 = Rng.bits64 b in
  check_bool "streams diverge after different draws" true (va2 <> vb2 || va = vb)

let test_split_determinism () =
  let a = Rng.create 9 and b = Rng.create 9 in
  let ca = Rng.split a and cb = Rng.split b in
  for _ = 1 to 50 do
    if Rng.bits64 ca <> Rng.bits64 cb then Alcotest.fail "split not deterministic"
  done

let test_split_independent () =
  let r = Rng.create 5 in
  let kids = Rng.split_n r 4 in
  let outputs = Array.map (fun k -> Rng.bits64 k) kids in
  let distinct = Array.to_list outputs |> List.sort_uniq Int64.compare |> List.length in
  check_int "children produce distinct values" 4 distinct

let test_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.failf "out of bounds: %d" v
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "int_in out of bounds: %d" v
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_int_uniform_ish () =
  let r = Rng.create 21 in
  let counts = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let v = Rng.int r 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = float_of_int trials /. 8.0 in
      if abs_float (float_of_int c -. expected) > 5.0 *. sqrt expected then
        Alcotest.failf "bucket %d way off: %d vs %.0f" i c expected)
    counts

let test_unit_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.unit_float r in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "unit_float out of range: %f" v
  done

let test_bernoulli_extremes () =
  let r = Rng.create 4 in
  check_bool "p=0 never" false (Rng.bernoulli r 0.0);
  check_bool "p=1 always" true (Rng.bernoulli r 1.0)

let test_permutation () =
  let r = Rng.create 11 in
  let p = Rng.permutation r 50 in
  check_bool "is permutation" true
    (List.sort Int.compare (Array.to_list p) = List.init 50 Fun.id)

let test_sample () =
  let r = Rng.create 13 in
  (* sparse and dense regimes *)
  List.iter
    (fun (n, k) ->
      let s = Rng.sample r n k in
      check_int "sample size" k (Array.length s);
      let sorted = List.sort_uniq Int.compare (Array.to_list s) in
      check_int "distinct" k (List.length sorted);
      List.iter (fun v -> if v < 0 || v >= n then Alcotest.fail "sample out of range") sorted)
    [ (100, 3); (100, 80); (10, 10); (10, 0) ];
  Alcotest.check_raises "k > n" (Invalid_argument "Rng.sample: need 0 <= k <= n") (fun () ->
      ignore (Rng.sample r 3 4))

let test_choose () =
  let r = Rng.create 17 in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 20 do
    let v = Rng.choose r a in
    if v < 1 || v > 3 then Alcotest.fail "choose out of range"
  done

let test_geometric () =
  let r = Rng.create 23 in
  check_int "p=1 is 0" 0 (Dist.geometric r 1.0);
  let total = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    total := !total + Dist.geometric r 0.25
  done;
  (* mean = (1-p)/p = 3 *)
  let mean = float_of_int !total /. float_of_int trials in
  check_float_eps 0.15 "geometric mean" 3.0 mean

let test_binomial () =
  let r = Rng.create 29 in
  check_int "n=0" 0 (Dist.binomial r 0 0.5);
  check_int "p=0" 0 (Dist.binomial r 100 0.0);
  check_int "p=1" 100 (Dist.binomial r 100 1.0);
  let trials = 20_000 in
  let total = ref 0 in
  for _ = 1 to trials do
    total := !total + Dist.binomial r 50 0.3
  done;
  let mean = float_of_int !total /. float_of_int trials in
  check_float_eps 0.3 "binomial mean np=15" 15.0 mean;
  (* large-np branch *)
  let v = Dist.binomial r 100_000 0.4 in
  check_bool "large np in range" true (v >= 0 && v <= 100_000);
  check_bool "large np near mean" true (abs (v - 40_000) < 2_000)

let test_exponential_normal () =
  let r = Rng.create 31 in
  let trials = 50_000 in
  let total = ref 0.0 in
  for _ = 1 to trials do
    total := !total +. Dist.exponential r 2.0
  done;
  check_float_eps 0.03 "exponential mean 1/lambda" 0.5 (!total /. float_of_int trials);
  let total = ref 0.0 in
  for _ = 1 to trials do
    total := !total +. Dist.normal r 3.0 1.5
  done;
  check_float_eps 0.05 "normal mean" 3.0 (!total /. float_of_int trials)

(* nan fails every comparison, so the parameter checks are negated
   ranges: a nan rate would make every exponential draw nan, and a
   clock advanced by nan never reaches its horizon *)
let test_dist_refuses_nan () =
  let r = Rng.create 3 in
  Alcotest.check_raises "geometric" (Invalid_argument "Dist.geometric: need 0 < p <= 1")
    (fun () -> ignore (Dist.geometric r Float.nan));
  Alcotest.check_raises "exponential" (Invalid_argument "Dist.exponential: need lambda > 0")
    (fun () -> ignore (Dist.exponential r Float.nan))

(* The published SplitMix64 stream from seed 0: Xoshiro256 and Rng are
   seeded through it, so a drift here moves every seeded result. *)
let test_splitmix_reference () =
  let sm = Splitmix64.create 0L in
  let first = List.init 3 (fun _ -> Splitmix64.next sm) in
  check_bool "seed 0 stream" true
    (first = [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]);
  check_bool "mix fixes 0" true (Splitmix64.mix 0L = 0L)

let test_of_int64_deterministic () =
  let a = Rng.of_int64 42L and b = Rng.of_int64 42L and c = Rng.of_int64 43L in
  let draw r = List.init 8 (fun _ -> Rng.bits64 r) in
  let da = draw a in
  check_bool "same seed, same stream" true (da = draw b);
  check_bool "next seed, other stream" false (da = draw c)

let test_shuffle_permutes () =
  let a = Array.init 100 Fun.id and b = Array.init 100 Fun.id in
  Rng.shuffle (Rng.create 5) a;
  Rng.shuffle (Rng.create 5) b;
  check_bool "same seed, same order" true (a = b);
  check_bool "moved something" true (a <> Array.init 100 Fun.id);
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  check_bool "a permutation" true (sorted = Array.init 100 Fun.id)

let test_xoshiro_copy_independent () =
  let x = Xoshiro256.of_splitmix (Splitmix64.create 9L) in
  let y = Xoshiro256.copy x in
  let from_x = Xoshiro256.next x in
  ignore (Xoshiro256.next x);
  check_bool "copy replays the original" true (Xoshiro256.next y = from_x);
  check_bool "of_seed is a pure function" true
    (Xoshiro256.next (Xoshiro256.of_seed 3L) = Xoshiro256.next (Xoshiro256.of_seed 3L))

let () =
  Alcotest.run "prng"
    [
      ( "rng",
        [
          case "determinism" test_determinism;
          case "copy" test_copy_independent;
          case "split determinism" test_split_determinism;
          case "split independence" test_split_independent;
          case "int bounds" test_int_bounds;
          case "int uniformity" test_int_uniform_ish;
          case "unit_float range" test_unit_float_range;
          case "bernoulli extremes" test_bernoulli_extremes;
          case "permutation" test_permutation;
          case "sample" test_sample;
          case "choose" test_choose;
        ] );
      ( "dist",
        [
          case "geometric" test_geometric;
          case "binomial" test_binomial;
          case "exponential/normal" test_exponential_normal;
          case "nan parameters refused" test_dist_refuses_nan;
          case "splitmix64 reference stream" test_splitmix_reference;
          case "of_int64 deterministic" test_of_int64_deterministic;
          case "shuffle permutes" test_shuffle_permutes;
          case "xoshiro copy independent" test_xoshiro_copy_independent;
        ] );
    ]
