open Fn_graph
open Fn_prng
open Fn_faults

(* Snapshot-to-snapshot churn delta as an online event batch: nodes
   faulty now but not before fail, nodes faulty before but not now
   repair.  Disjoint by construction, so normalization accepts it
   verbatim. *)
let batch_between ~prev ~now =
  let faults = ref [] and repairs = ref [] in
  Bitset.iter
    (fun v -> if not (Bitset.mem prev v) then faults := Fn_online.Event.Fault v :: !faults)
    now;
  Bitset.iter
    (fun v -> if not (Bitset.mem now v) then repairs := Fn_online.Event.Repair v :: !repairs)
    prev;
  List.rev_append !faults (List.rev !repairs)

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let obs = cfg.Workload.obs in
  let domains = cfg.Workload.domains in
  let online = cfg.Workload.online in
  let rng = Rng.create seed in
  let side = if quick then 12 else 16 in
  let snapshots = if quick then 6 else 10 in
  let g, _ = Fn_topology.Torus.cube ~d:2 ~side in
  let n = Graph.num_nodes g in
  let rate_fail = 0.1 and rate_repair = 0.9 in
  let stationary = Churn.stationary_dead_fraction ~rate_fail ~rate_repair in
  let alpha_e = Workload.edge_expansion_estimate ~obs ?domains rng g in
  let epsilon = Faultnet.Theorem.thm34_max_epsilon ~delta:(Graph.max_degree g) in
  let table =
    Fn_stats.Table.create [ "time"; "dead"; "gamma"; "kept"; "survivor exp"; "exp ratio" ]
  in
  let min_kept = ref n and min_ratio = ref infinity in
  let snaps = Churn.simulate rng g ~rate_fail ~rate_repair ~horizon:20.0 ~snapshots in
  (* Online mode: one engine carries the survivor certificate across
     the whole trajectory, fed the snapshot deltas as batches; the
     per-snapshot Prune re-run disappears.  A final audit checks the
     incremental state against the from-scratch cascade. *)
  let engine =
    if online then
      Some
        (Fn_online.Engine.create
           ~cfg:
             {
               Fn_online.Engine.seed;
               radius = 2;
               alpha = alpha_e;
               epsilon;
               audit_every = 0;
               max_dirty_frac = 1.0;
               postmortem = None;
               domains;
               obs;
             }
           (Gview.Csr g))
    else None
  in
  let prev_faulty = ref (Bitset.create n) in
  List.iter
    (fun snap ->
      let alive = snap.Churn.faults.Fault_set.alive in
      (match engine with
      | Some eng ->
        (* apply the delta even when the snapshot is skipped below:
           the engine must track the full trajectory *)
        let now = snap.Churn.faults.Fault_set.faulty in
        (match Fn_online.Engine.apply eng (batch_between ~prev:!prev_faulty ~now) with
        | Ok _ -> ()
        | Error e ->
          failwith ("E14 online: batch rejected: " ^ Fn_faults.Churn.error_to_string e));
        prev_faulty := Bitset.copy now
      | None -> ());
      if Bitset.cardinal alive >= 2 then begin
        let gamma, kept, exp_h, ratio =
          let gamma = Workload.gamma_of_alive g alive in
          let kept_mask =
            match engine with
            | Some eng -> (Fn_online.Engine.result eng).Faultnet.Prune.kept
            | None ->
              (Faultnet.Prune2.run ~obs ~rng ?domains g ~alive ~alpha_e ~epsilon)
                .Faultnet.Prune2.kept
          in
          let kept = Bitset.cardinal kept_mask in
          let exp_h =
            if kept >= 2 then
              Workload.edge_expansion_estimate ~obs ?domains rng ~alive:kept_mask g
            else 0.0
          in
          (gamma, kept, exp_h, exp_h /. alpha_e)
        in
        if kept < !min_kept then min_kept := kept;
        if ratio < !min_ratio then min_ratio := ratio;
        Fn_stats.Table.add_row table
          [
            Printf.sprintf "%.1f" snap.Churn.time;
            string_of_int (Fault_set.count snap.Churn.faults);
            Printf.sprintf "%.3f" gamma;
            string_of_int kept;
            Printf.sprintf "%.4f" exp_h;
            Printf.sprintf "%.2f" ratio;
          ]
      end)
    snaps;
  let checks =
    [
      (Printf.sprintf "survivor never drops below n/2 (min %d of %d)" !min_kept n,
       2 * !min_kept >= n);
      (Printf.sprintf "survivor expansion never drops below 0.3x fault-free (min %.2f)"
         !min_ratio,
       !min_ratio >= 0.3);
    ]
  in
  let checks =
    match engine with
    | None -> checks
    | Some eng ->
      let rep = Fn_online.Engine.audit eng in
      checks
      @ [
          ("(online) incremental certificate equals from-scratch audit",
           rep.Fn_online.Engine.faults = 0);
        ]
  in
  let notes =
    [
      Printf.sprintf
        "on/off rates %.1f/%.1f give a stationary dead fraction of %.0f%%; snapshots \
         every 2 time units over horizon 20" rate_fail rate_repair (100.0 *. stationary);
    ]
  in
  let notes =
    if online then
      notes
      @ [
          "online mode: survivors come from the incremental Fn_online.Engine cascade \
           (radius-2 ball certificates) fed snapshot deltas, not a per-snapshot Prune2 \
           re-run";
        ]
    else notes
  in
  {
    Outcome.id = "E14";
    title = "Transient churn: sustained expansion of the pruned survivor over time";
    table;
    checks;
    notes;
  }
