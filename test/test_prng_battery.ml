(* Statistical battery for the xoshiro256** generator: lightweight
   versions of standard PRNG tests with conservative thresholds, so
   they are deterministic-by-seed and far from flaky while still
   catching gross regressions (bad seeding, state aliasing, broken
   rotations). *)

open Fn_prng
open Testutil

let chi_square observed expected =
  Array.fold_left ( +. ) 0.0
    (Array.mapi
       (fun i o ->
         let e = expected.(i) in
         (o -. e) *. (o -. e) /. e)
       observed)

let test_monobit () =
  (* fraction of set bits over many words ~ 1/2 *)
  let r = Rng.create 101 in
  let ones = ref 0 in
  let words = 10_000 in
  for _ = 1 to words do
    let v = ref (Rng.bits64 r) in
    while !v <> 0L do
      if Int64.logand !v 1L = 1L then incr ones;
      v := Int64.shift_right_logical !v 1
    done
  done;
  let frac = float_of_int !ones /. float_of_int (words * 64) in
  check_float_eps 0.003 "bit balance" 0.5 frac

let test_byte_chi_square () =
  (* low byte of each word uniform over 256 values *)
  let r = Rng.create 202 in
  let buckets = Array.make 256 0.0 in
  let samples = 256_000 in
  for _ = 1 to samples do
    let b = Int64.to_int (Int64.logand (Rng.bits64 r) 0xFFL) in
    buckets.(b) <- buckets.(b) +. 1.0
  done;
  let expected = Array.make 256 (float_of_int samples /. 256.0) in
  let x2 = chi_square buckets expected in
  (* df = 255; mean 255, sd ~ 22.6; allow 5 sigma *)
  check_bool (Printf.sprintf "chi2 = %.1f within [142, 368]" x2) true
    (x2 > 142.0 && x2 < 368.0)

let test_serial_correlation () =
  (* lag-1 correlation of unit floats ~ 0 *)
  let r = Rng.create 303 in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Rng.unit_float r) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let num = ref 0.0 and den = ref 0.0 in
  for i = 0 to n - 2 do
    num := !num +. ((xs.(i) -. mean) *. (xs.(i + 1) -. mean))
  done;
  Array.iter (fun x -> den := !den +. ((x -. mean) *. (x -. mean))) xs;
  let rho = !num /. !den in
  (* sd ~ 1/sqrt(n) ~ 0.0032; allow 5 sigma *)
  check_bool (Printf.sprintf "lag-1 rho = %.4f" rho) true (abs_float rho < 0.016)

let test_gap_lengths () =
  (* runs of heads in coin flips follow geometric(1/2): mean run 2 *)
  let r = Rng.create 404 in
  let flips = 200_000 in
  let runs = ref 0 and current = ref 0 and total = ref 0 in
  for _ = 1 to flips do
    if Rng.bool r then incr current
    else if !current > 0 then begin
      incr runs;
      total := !total + !current;
      current := 0
    end
  done;
  let mean_run = float_of_int !total /. float_of_int !runs in
  check_float_eps 0.05 "mean run of heads" 2.0 mean_run

let test_split_streams_uncorrelated () =
  (* parent and child streams should not track each other *)
  let parent = Rng.create 505 in
  let child = Rng.split parent in
  let n = 50_000 in
  let matches = ref 0 in
  for _ = 1 to n do
    let a = Rng.int parent 2 and b = Rng.int child 2 in
    if a = b then incr matches
  done;
  let frac = float_of_int !matches /. float_of_int n in
  check_float_eps 0.02 "agreement rate ~ 1/2" 0.5 frac

let test_permutation_uniformity () =
  (* all 6 permutations of 3 elements roughly equally likely *)
  let r = Rng.create 606 in
  let counts = Hashtbl.create 6 in
  let samples = 60_000 in
  for _ = 1 to samples do
    let p = Rng.permutation r 3 in
    let key = (p.(0) * 100) + (p.(1) * 10) + p.(2) in
    Hashtbl.replace counts key (1 + try Hashtbl.find counts key with Not_found -> 0)
  done;
  check_int "all 6 permutations occur" 6 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      let e = float_of_int samples /. 6.0 in
      if abs_float (float_of_int c -. e) > 5.0 *. sqrt e then
        Alcotest.failf "permutation bucket off: %d vs %.0f" c e)
    counts

let () =
  Alcotest.run "prng_battery"
    [
      ( "battery",
        [
          case "monobit" test_monobit;
          case "byte chi-square" test_byte_chi_square;
          case "serial correlation" test_serial_correlation;
          case "run lengths" test_gap_lengths;
          case "split independence" test_split_streams_uncorrelated;
          case "permutation uniformity" test_permutation_uniformity;
        ] );
    ]
