(* The certify workload: the paper's pipeline in-process on CSR graphs.

   Set-up builds a seeded random 6-regular expander (n = 512) and a
   24x24 torus and estimates their pristine node / edge expansion.
   Op i (rng seeded with workload seed + i) certifies two faulted
   instances:
   (a) expander: Theorem 2.1 adversary (ball isolation at the k = 2
       fault budget), Prune, certificate re-check, survivor estimate;
   (b) torus: iid node faults at p = 0.2, Prune2 (epsilon of Theorem
       3.4 for degree 4), certificate re-check, survivor estimate.
   Expansion (Spectral/Power below 50k nodes) and faultnet (Prune,
   Prune2, Low_expansion) do nearly all of the work; online,
   resilience and the protocol do none.

   The traced pass replays the same ops with benchmark-side timers
   around every public call, a counting wrapper around the default
   finder, and a memory sink on the survivor estimates to collect the
   library's own spectral.solve spans.  Its results must match the
   untraced pass bit for bit. *)

open Fn_graph
module Rng = Fn_prng.Rng
module Est = Fn_expansion.Estimate
module Cut = Fn_expansion.Cut
module Th = Faultnet.Theorem

let k = 2.0
let fault_p = 0.2
let delta = 4

type instance = { expander : Graph.t; torus : Graph.t; alpha : float; alpha_e : float }

(* One set-up; also returns its generate and estimate times in ns. *)
let setup ~seed =
  let t0 = Meter.now_ns () in
  let expander = Fn_topology.Expander.random_regular (Rng.create seed) ~n:512 ~d:6 in
  let torus, _ = Fn_topology.Torus.graph [| 24; 24 |] in
  let generate_ns = Meter.elapsed_ns t0 in
  let t1 = Meter.now_ns () in
  let alpha = (Est.run expander Cut.Node).Est.value in
  let alpha_e = (Est.run torus Cut.Edge).Est.value in
  ({ expander; torus; alpha; alpha_e }, generate_ns, Meter.elapsed_ns t1)

(* Per-op layer accounting of the traced pass (times in ns). *)
type layers = {
  inject : float ref;
  prune : float ref;
  finder : float ref;
  finder_calls : int ref;
  prune2 : float ref;
  finder2 : float ref;
  finder2_calls : int ref;
  verify : float ref;
  survivor : float ref;
  survivor_words : float ref;
  solve : float ref;
  solve_iterations : int ref;
}

let fresh_layers () =
  {
    inject = ref 0.0;
    prune = ref 0.0;
    finder = ref 0.0;
    finder_calls = ref 0;
    prune2 = ref 0.0;
    finder2 = ref 0.0;
    finder2_calls = ref 0;
    verify = ref 0.0;
    survivor = ref 0.0;
    survivor_words = ref 0.0;
    solve = ref 0.0;
    solve_iterations = ref 0;
  }

(* The default finder Prune/Prune2 build for themselves
   (Low_expansion.default, no rng, sequential), wrapped to count and
   time its calls.  Prune's time includes the finder's. *)
let counted_finder calls ns objective =
  let inner = Faultnet.Low_expansion.default objective in
  fun ~alive g ~threshold ->
    incr calls;
    Meter.timed ns (fun () -> inner ~alive g ~threshold)

(* Sum the spectral.solve spans (duration, iterations) in a memory
   sink's events. *)
let collect_solves l events =
  let open Fn_obs.Sink in
  let enters = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if e.name = "spectral.solve" then
        match e.kind with
        | Enter -> Hashtbl.replace enters e.id e.ts_ns
        | Exit ->
          (match Hashtbl.find_opt enters e.id with
          | Some t0 -> l.solve := !(l.solve) +. float_of_int (e.ts_ns - t0)
          | None -> ());
          List.iter
            (function
              | "iterations", Int it -> l.solve_iterations := !(l.solve_iterations) + it
              | _ -> ())
            e.fields
        | Instant -> ())
    events

type op = { ok : bool; digest : int; rounds : int; rounds2 : int }

(* Op [i]; [trace] turns on the layer accounting. *)
let run_op ?trace inst ~seed =
  let time slot f = match trace with None -> f () | Some l -> Meter.timed (slot l) f in
  let rng = Rng.create seed in
  let g = inst.expander and t = inst.torus in
  let n = Graph.num_nodes g in
  (* (a) adversarial faults on the expander, Theorem 2.1 with k = 2 *)
  let budget = Th.thm21_max_faults ~alpha:inst.alpha ~n ~k in
  let fa = time (fun l -> l.inject) (fun () -> Fn_faults.Adversary.ball_isolation rng g ~budget) in
  let alive_a = fa.Fn_faults.Fault_set.alive in
  let pa =
    time
      (fun l -> l.prune)
      (fun () ->
        Faultnet.Prune.run
          ?finder:(Option.map (fun l -> counted_finder l.finder_calls l.finder Cut.Node) trace)
          g ~alive:alive_a ~alpha:inst.alpha ~epsilon:(Th.thm21_epsilon ~k))
  in
  let va =
    time (fun l -> l.verify) (fun () -> Faultnet.Prune.verify_certificates g ~alive:alive_a pa)
  in
  let kept_a = pa.Faultnet.Prune.kept in
  let survivor objective graph kept =
    match trace with
    | None -> Est.run ~alive:kept graph objective
    | Some l ->
      let sink, events = Fn_obs.Sink.memory () in
      let w0 = Meter.alloc_words () in
      let e = Meter.timed l.survivor (fun () -> Est.run ~obs:sink ~alive:kept graph objective) in
      l.survivor_words := !(l.survivor_words) +. (Meter.alloc_words () -. w0);
      collect_solves l (events ());
      e
  in
  let ea = survivor Cut.Node g kept_a in
  let size_ok =
    float_of_int (Bitset.cardinal kept_a)
    >= Th.thm21_min_kept ~alpha:inst.alpha ~n ~k ~f:(Fn_faults.Fault_set.count fa)
  in
  let expansion_ok = ea.Est.value >= Th.thm21_expansion ~alpha:inst.alpha ~k in
  (* (b) random faults on the torus, Prune2 at Theorem 3.4's epsilon *)
  let fb = time (fun l -> l.inject) (fun () -> Fn_faults.Random_faults.nodes_iid rng t fault_p) in
  let alive_b = fb.Fn_faults.Fault_set.alive in
  let pb =
    time
      (fun l -> l.prune2)
      (fun () ->
        Faultnet.Prune2.run
          ?finder:(Option.map (fun l -> counted_finder l.finder2_calls l.finder2 Cut.Edge) trace)
          t ~alive:alive_b ~alpha_e:inst.alpha_e ~epsilon:(Th.thm34_max_epsilon ~delta))
  in
  let vb =
    time (fun l -> l.verify) (fun () -> Faultnet.Prune2.verify_certificates t ~alive:alive_b pb)
  in
  let kept_b = pb.Faultnet.Prune2.kept in
  let eb = if Bitset.cardinal kept_b >= 2 then Some (survivor Cut.Edge t kept_b) else None in
  let digest =
    let h = Report.mix_bitset Report.fnv_init kept_a in
    let h = Report.mix h pa.Faultnet.Prune.iterations in
    let h = Report.mix_float h ea.Est.value in
    let h = Report.mix_bitset h kept_b in
    let h = Report.mix h pb.Faultnet.Prune2.iterations in
    match eb with Some e -> Report.mix_float h e.Est.value | None -> Report.mix h (-1)
  in
  {
    ok = va && vb && size_ok && expansion_ok && eb <> None;
    digest;
    rounds = pa.Faultnet.Prune.iterations;
    rounds2 = pb.Faultnet.Prune2.iterations;
  }

let ops_for ~seconds = 2 * seconds

(* A set-up sample after every [setup_every]-th op, outside the op
   timings, so the samples spread over the pass. *)
let setup_every = 3

let run ~seed ~seconds ~trace =
  (* Every timed round (an op or a set-up) sits between two runs of the
     reference kernel and is also taken at the reference speed. *)
  let r = Meter.reference Meter.fp_kernel ~nominal:Meter.fp_nominal_ns in
  let setup_s = ref [] and setup_raw = ref [] and gen = ref [] and pristine = ref [] in
  let set_up () =
    let t0 = Meter.now_ns () in
    let i, g_ns, e_ns = setup ~seed in
    let raw = Meter.elapsed_ns t0 in
    Meter.add setup_raw (raw *. 1e-9);
    Meter.add setup_s (raw *. Meter.rescale r *. 1e-9);
    Meter.add gen g_ns;
    Meter.add pristine e_ns;
    i
  in
  let inst = set_up () in
  let ops = ops_for ~seconds in
  (* untraced pass: end-to-end figures and the exact counters *)
  Gc.compact ();
  Meter.take r;
  let lat = ref [] and scaled = ref [] and words = ref 0.0 in
  let failed = ref 0 and rounds = ref 0 and rounds2 = ref 0 in
  let digests = Array.make ops 0 in
  for i = 0 to ops - 1 do
    let w0 = Meter.alloc_words () in
    let t0 = Meter.now_ns () in
    let o = run_op inst ~seed:(seed + i) in
    let raw = Meter.elapsed_ns t0 in
    words := !words +. (Meter.alloc_words () -. w0);
    Meter.add lat raw;
    Meter.add scaled (raw *. Meter.rescale r);
    if not o.ok then incr failed;
    digests.(i) <- o.digest;
    rounds := !rounds + o.rounds;
    rounds2 := !rounds2 + o.rounds2;
    if i mod setup_every = setup_every - 1 then ignore (set_up () : instance)
  done;
  let wall = Meter.sum !lat *. 1e-9 in
  let words_per_op = !words /. float_of_int ops in
  let rss = Meter.vmhwm_mb "self" in
  let run_digest = Array.fold_left Report.mix Report.fnv_init digests in
  let counters =
    [
      ("prune.rounds", string_of_int !rounds);
      ("prune2.rounds", string_of_int !rounds2);
      ("alloc_words_per_op", Printf.sprintf "%.0f" words_per_op);
      ("ops_digest", Printf.sprintf "%x" run_digest);
    ]
  in
  (* Timings at the reference speed: throughput over the whole pass,
     latency and set-up time as medians over the run. *)
  let e2e =
    [
      ("setup_s", Meter.median !setup_s);
      ("ops_per_s", float_of_int ops /. (Meter.sum !scaled *. 1e-9));
      ("op_p50_us", Meter.median !scaled *. 1e-3);
      ("rss_mb", rss);
    ]
  in
  let base =
    {
      Report.attempted = ops;
      failed = !failed;
      checks = [];
      e2e;
      layers = [];
      counters;
      notes =
        [
          ("untraced_wall_s", wall);
          ("ops_per_s_wall", float_of_int ops /. wall);
          ("op_p50_wall_us", Meter.median !lat *. 1e-3);
          ("setup_median_wall_s", Meter.median !setup_raw);
          ("setup_samples", float_of_int (List.length !setup_s));
          ("reference_median_ms", Meter.median r.Meter.times *. 1e-6);
        ];
    }
  in
  if not trace then base
  else begin
    (* traced pass: same ops, per-call timers; results must be equal *)
    Gc.compact ();
    let per name = (name, ref []) in
    let inject = per "faults.inject_us" and prune = per "prune.run_ms"
    and finder = per "prune.finder_ms" and prune2 = per "prune2.run_ms"
    and finder2 = per "prune2.finder_ms"
    and verify = per "verify_us" and survivor = per "estimate.survivor_ms"
    and solve = per "spectral.solve_ms" in
    let finder_calls = ref 0 and finder2_calls = ref 0 and iterations = ref 0 in
    let survivor_words = ref 0.0 in
    let tfailed = ref 0 and same = ref true and trounds = ref 0 and trounds2 = ref 0 in
    let t_pass = Meter.now_ns () in
    for i = 0 to ops - 1 do
      let l = fresh_layers () in
      let o = run_op ~trace:l inst ~seed:(seed + i) in
      if not o.ok then incr tfailed;
      if o.digest <> digests.(i) then same := false;
      trounds := !trounds + o.rounds;
      trounds2 := !trounds2 + o.rounds2;
      Meter.add (snd inject) (!(l.inject) *. 1e-3);
      Meter.add (snd prune) (!(l.prune) *. 1e-6);
      Meter.add (snd finder) (!(l.finder) *. 1e-6);
      Meter.add (snd prune2) (!(l.prune2) *. 1e-6);
      Meter.add (snd finder2) (!(l.finder2) *. 1e-6);
      Meter.add (snd verify) (!(l.verify) *. 1e-3);
      Meter.add (snd survivor) (!(l.survivor) *. 1e-6);
      Meter.add (snd solve) (!(l.solve) *. 1e-6);
      finder_calls := !finder_calls + !(l.finder_calls);
      finder2_calls := !finder2_calls + !(l.finder2_calls);
      iterations := !iterations + !(l.solve_iterations);
      survivor_words := !survivor_words +. !(l.survivor_words)
    done;
    let traced_wall = Meter.elapsed_s t_pass in
    let medians = List.map (fun (name, s) -> (name, Meter.median !s)) in
    {
      base with
      Report.attempted = 2 * ops;
      failed = !failed + !tfailed;
      checks =
        [
          ("traced results equal untraced", !same);
          ("traced rounds equal untraced", !trounds = !rounds && !trounds2 = !rounds2);
        ];
      layers =
        [
          ("topology.generate_ms", Meter.median !gen *. 1e-6);
          ("estimate.pristine_ms", Meter.median !pristine *. 1e-6);
          ("prune.rounds", float_of_int !rounds);
          ("prune.finder_calls", float_of_int !finder_calls);
          ("prune2.rounds", float_of_int !rounds2);
          ("prune2.finder_calls", float_of_int !finder2_calls);
          ("estimate.alloc_words", !survivor_words /. float_of_int ops);
          ("spectral.iterations", float_of_int !iterations);
          ("alloc_words_per_op", words_per_op);
          ("trace.overhead_s", traced_wall -. wall);
        ]
        @ medians [ inject; prune; finder; prune2; finder2; verify; survivor; solve ];
      counters = counters @ [ ("spectral.iterations", string_of_int !iterations) ];
      notes = base.Report.notes @ [ ("traced_wall_s", traced_wall) ];
    }
  end
