open Fn_parallel
open Testutil

let test_map_matches_sequential () =
  let input = Array.init 100 Fun.id in
  let f x = (x * x) + 1 in
  let expected = Array.map f input in
  List.iter
    (fun domains ->
      let got = Par.map ~domains f input in
      check_bool (Printf.sprintf "domains=%d" domains) true (got = expected))
    [ 1; 2; 4; 7 ]

let test_map_preserves_order () =
  let got = Par.map ~domains:4 string_of_int (Array.init 37 Fun.id) in
  Array.iteri (fun i s -> if s <> string_of_int i then Alcotest.fail "order broken") got

let test_map_empty_and_singleton () =
  check_bool "empty" true (Par.map ~domains:4 succ [||] = [||]);
  check_bool "singleton" true (Par.map ~domains:4 succ [| 41 |] = [| 42 |])

let test_trials_deterministic_across_domains () =
  let job rng = Fn_prng.Rng.int rng 1_000_000 in
  let run domains =
    let rng = Fn_prng.Rng.create 2024 in
    Par.trials ~domains ~rng 16 job
  in
  let seq = run 1 in
  let par = run 6 in
  check_bool "parallel = sequential" true (seq = par)

let test_trials_distinct_generators () =
  let rng = Fn_prng.Rng.create 1 in
  let outs = Par.trials ~domains:2 ~rng 8 (fun r -> Fn_prng.Rng.bits64 r) in
  let distinct = Array.to_list outs |> List.sort_uniq Int64.compare |> List.length in
  check_int "independent streams" 8 distinct

(* Regression: a raising job must surface as Job_failed carrying the
   job's input index, on both the sequential and the parallel path, and
   the lowest failing index must win when several chunks fail. *)

let catch_job_failed f =
  match f () with
  | (_ : int array) -> Alcotest.fail "expected Job_failed"
  | exception Par.Job_failed { index; exn } -> (index, exn)

let test_job_failed_sequential () =
  let input = Array.init 4 Fun.id in
  let index, exn =
    catch_job_failed (fun () ->
        Par.map ~domains:1 (fun i -> if i = 2 then failwith "boom" else i) input)
  in
  check_int "failing index" 2 index;
  check_bool "original exception kept" true (exn = Stdlib.Failure "boom")

let test_job_failed_parallel () =
  let input = Array.init 16 Fun.id in
  let index, exn =
    catch_job_failed (fun () ->
        Par.map ~domains:4 (fun i -> if i = 10 then failwith "boom" else i) input)
  in
  check_int "failing index" 10 index;
  check_bool "original exception kept" true (exn = Stdlib.Failure "boom")

let test_job_failed_lowest_index_wins () =
  (* indices 3 and 12 land in different chunks of a 4-domain split *)
  let input = Array.init 16 Fun.id in
  let index, _ =
    catch_job_failed (fun () ->
        Par.map ~domains:4 (fun i -> if i = 3 || i = 12 then raise Exit else i) input)
  in
  check_int "lowest failing index" 3 index

let test_job_failed_siblings_complete () =
  (* a crash in one chunk stops only that chunk: with 4 domains over 16
     inputs, failing at index 0 skips the rest of chunk [0..3] while the
     other 12 jobs still run to completion before the join re-raises *)
  let ran = Atomic.make 0 in
  let index, _ =
    catch_job_failed (fun () ->
        Par.map ~domains:4
          (fun i ->
            Atomic.incr ran;
            if i = 0 then raise Exit;
            i)
          (Array.init 16 Fun.id))
  in
  check_int "failing index" 0 index;
  check_int "sibling chunks ran to completion" 13 (Atomic.get ran)

(* ---- Pool ---- *)

let pool_sum pool n =
  (* disjoint-range parallel sum into per-worker slots *)
  let workers = Par.Pool.size pool in
  let chunk = (n + workers - 1) / workers in
  let partial = Array.make workers 0 in
  Par.Pool.run pool (fun w ->
      let lo = w * chunk and hi = min n ((w + 1) * chunk) in
      let s = ref 0 in
      for i = lo to hi - 1 do
        s := !s + i
      done;
      partial.(w) <- !s);
  Array.fold_left ( + ) 0 partial

let test_pool_matches_sequential () =
  let n = 1000 in
  let expected = n * (n - 1) / 2 in
  List.iter
    (fun domains ->
      Par.Pool.with_pool ~domains (fun pool ->
          check_int (Printf.sprintf "domains=%d" domains) expected (pool_sum pool n)))
    [ 1; 2; 4; 7 ]

let test_pool_reuse () =
  (* many runs on one pool — the spectral matvec access pattern *)
  Par.Pool.with_pool ~domains:4 (fun pool ->
      for n = 1 to 200 do
        Alcotest.(check int) "reused" (n * (n - 1) / 2) (pool_sum pool n)
      done)

let test_pool_size_one_inline () =
  Par.Pool.with_pool ~domains:1 (fun pool ->
      check_int "size" 1 (Par.Pool.size pool);
      let ran = ref (-1) in
      (* lint: allow par-capture-mutation — size-1 pool runs the job inline
         on the calling domain, so the captured ref is not shared *)
      Par.Pool.run pool (fun w -> ran := w);
      check_int "worker 0 inline" 0 !ran)

let test_pool_job_failed () =
  Par.Pool.with_pool ~domains:4 (fun pool ->
      match Par.Pool.run pool (fun w -> if w >= 2 then failwith "boom") with
      | () -> Alcotest.fail "expected Job_failed"
      | exception Par.Job_failed { index; exn = Failure m } ->
        check_int "lowest failing worker" 2 index;
        Alcotest.(check string) "original exn" "boom" m
      | exception e -> raise e);
  (* the pool survives a failing job *)
  Par.Pool.with_pool ~domains:4 (fun pool ->
      (try Par.Pool.run pool (fun _ -> failwith "boom") with Par.Job_failed _ -> ());
      check_int "usable after failure" 10 (pool_sum pool 5))

let test_pool_shutdown_idempotent () =
  let pool = Par.Pool.create ~domains:3 () in
  check_int "before" 3 (pool_sum pool 3);
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool;
  (* post-shutdown runs execute only worker 0 inline, per contract *)
  let visited = ref [] in
  (* lint: allow par-capture-mutation — after shutdown only worker 0 runs,
     inline on the calling domain; that single-threadedness is the point *)
  Par.Pool.run pool (fun w -> visited := w :: !visited);
  check_bool "only worker 0" true (!visited = [ 0 ])

let test_default_domains_reasonable () =
  let d = Par.default_domains () in
  check_bool "within [1,8]" true (d >= 1 && d <= 8)

(* The runtime holds 128 domains, the caller's included: max_domains
   leaves room for the caller, and the default never exceeds it.  No
   test spawns that many; the binaries refuse larger --domains values
   before any work. *)
let test_max_domains () =
  check_int "runtime limit less the caller" 127 Par.max_domains;
  check_bool "default within it" true (Par.default_domains () <= Par.max_domains)

let () =
  Alcotest.run "parallel"
    [
      ( "par",
        [
          case "map matches sequential" test_map_matches_sequential;
          case "order preserved" test_map_preserves_order;
          case "empty/singleton" test_map_empty_and_singleton;
          case "trials deterministic" test_trials_deterministic_across_domains;
          case "trials independent" test_trials_distinct_generators;
          case "job failure sequential" test_job_failed_sequential;
          case "job failure parallel" test_job_failed_parallel;
          case "job failure lowest index" test_job_failed_lowest_index_wins;
          case "job failure isolation" test_job_failed_siblings_complete;
          case "default domains" test_default_domains_reasonable;
          case "max domains" test_max_domains;
        ] );
      ( "pool",
        [
          case "matches sequential" test_pool_matches_sequential;
          case "reuse across runs" test_pool_reuse;
          case "size one inline" test_pool_size_one_inline;
          case "job failure" test_pool_job_failed;
          case "shutdown idempotent" test_pool_shutdown_idempotent;
        ] );
    ]
