(* Clock, sample sets, allocation and memory readings shared by the
   workloads.  Every timing in the benchmark goes through [now_ns]:
   CLOCK_MONOTONIC with nanosecond resolution, never the library's
   gettimeofday-based Fn_obs.Clock (about 1 us resolution, against a
   point-query p50 of a few microseconds). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let elapsed_ns t0 = float_of_int (now_ns () - t0)
let elapsed_s t0 = elapsed_ns t0 *. 1e-9

(* Time one call; [f]'s duration in ns is added to [into]. *)
let timed into f =
  let t0 = now_ns () in
  let r = f () in
  into := !into +. elapsed_ns t0;
  r

(* Sample sets are plain lists; their quantiles come from
   Fn_bench.Stats.  An empty set (a layer the workload never calls)
   reads 0. *)
let add samples x = samples := x :: !samples

let quantile samples q =
  match samples with [] -> 0.0 | l -> Fn_bench.Stats.quantile (Array.of_list l) q

let median samples = quantile samples 0.5
let sum samples = List.fold_left ( +. ) 0.0 samples

(* Words allocated on this domain's minor heap so far.  Exact and
   independent of when collections run, so it serves as a work
   counter.  The major-heap share (blocks over 256 words) is left out:
   its accounting moves with collection timing, which tracing shifts. *)
let alloc_words () = Gc.minor_words ()

(* Peak resident set (VmHWM) of a process, in MB; [pid] "self" reads
   this process. *)
let vmhwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM line in /proc status"
      in
      scan ())

(* Host drift probe: one integer dependency chain and one FP/allocation
   loop of fixed size, timed in every run and printed beside the
   metrics (never gated).  When two sets of runs disagree, a moved
   probe points at the host, a still probe at the program. *)
let probe () =
  let t0 = now_ns () in
  let x = ref 0x2545F491 in
  for _ = 1 to 30_000_000 do
    x := ((!x * 0x5851F42D) + 0x14057B7E) land 0x3FFFFFFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  let int_ms = elapsed_ns t0 *. 1e-6 in
  let t1 = now_ns () in
  let acc = ref 0.0 in
  for i = 1 to 4000 do
    let a = Array.init 2048 (fun j -> float_of_int (i + j) *. 0.5) in
    Array.iter (fun v -> acc := !acc +. sqrt v) a
  done;
  ignore (Sys.opaque_identity !acc);
  let fp_ms = elapsed_ns t1 *. 1e-6 in
  (int_ms, fp_ms)

(* A reference kernel: the benchmark's own fixed piece of work, timed
   around every timed round of a run.  No change to the program moves
   it, only the host, which runs the same work up to twice as slow for
   seconds to minutes at a time.  A round's wall time taken "at the
   reference speed" is scaled by R / r, where r is the mean of the
   kernel's times just before and just after the round and R is the
   kernel's [nominal] time: a program twice as slow reads twice as
   large, a host twice as slow about the same. *)
type reference = {
  kernel : unit -> float;  (** one run of the kernel; returns its ns *)
  nominal : float;  (** R, ns *)
  mutable last : float;  (** the latest kernel time, ns *)
  mutable times : float list;
}

(* Runs the kernel and keeps its time as the next round's "before". *)
let take r =
  r.last <- r.kernel ();
  r.times <- r.last :: r.times

let reference kernel ~nominal =
  let r = { kernel; nominal; last = 0.0; times = [] } in
  take r;
  r

(* Call right after a timed round: takes the kernel again and returns
   the factor that scales the round's wall time to the reference
   speed. *)
let rescale r =
  let before = r.last in
  take r;
  r.nominal /. ((before +. r.last) /. 2.0)

(* certify's kernel: a fixed FP loop over short-lived float arrays of
   256 words, small enough for the minor heap, so it promotes nothing,
   feeds no major-GC work and leaves the program's heap as it found it.
   Per certify op, log op time and log kernel time correlated at about
   0.7, and the op-to-kernel ratio moved by 3% between 15 s windows of
   one process where the op's own median moved by 15%. *)
let fp_kernel () =
  let t0 = now_ns () in
  let acc = ref 0.0 in
  for i = 1 to 6400 do
    let a = Array.init 256 (fun j -> float_of_int (i + j) *. 0.5) in
    Array.iter (fun v -> acc := !acc +. sqrt v) a
  done;
  ignore (Sys.opaque_identity !acc);
  elapsed_ns t0

let fp_nominal_ns = 20e6
