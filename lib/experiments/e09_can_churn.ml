open Fn_graph
open Fn_prng
open Fn_faults

let run (cfg : Workload.config) =
  let quick = cfg.Workload.quick and seed = cfg.Workload.seed in
  let obs = cfg.Workload.obs in
  let domains = cfg.Workload.domains in
  let online = cfg.Workload.online in
  let rng = Rng.create seed in
  let n = if quick then 128 else 256 in
  let dims = if quick then [ 2 ] else [ 2; 3; 4 ] in
  let p = 0.05 in
  let table =
    Fn_stats.Table.create
      [
        "d"; "overlay"; "nodes"; "max deg"; "alpha_e"; "p"; "kept"; "exp(H)"; "exp ratio"; "p_thy";
      ]
  in
  let all_kept = ref true in
  let ratio_ok = ref true in
  let audits_ok = ref true in
  let eval name g d =
    let nn = Graph.num_nodes g in
    let delta = Graph.max_degree g in
    let alpha_e, kept, exp_h, ratio =
      let alpha_e = Workload.edge_expansion_estimate ~obs ?domains rng g in
      let epsilon = min (Faultnet.Theorem.thm34_max_epsilon ~delta) 0.45 in
      let faults = Random_faults.nodes_iid rng g p in
      let kept_mask =
        if online then begin
          (* the whole fault set arrives as one online batch; the
             survivor is the engine's incremental cascade, checked
             against the from-scratch audit *)
          let eng =
            Fn_online.Engine.create
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
              (Gview.Csr g)
          in
          let batch =
            List.rev
              (Bitset.fold
                 (fun v acc -> Fn_online.Event.Fault v :: acc)
                 faults.Fault_set.faulty [])
          in
          (match Fn_online.Engine.apply eng batch with
          | Ok _ -> ()
          | Error e ->
            failwith ("E9 online: batch rejected: " ^ Churn.error_to_string e));
          let kept_mask = (Fn_online.Engine.result eng).Faultnet.Prune.kept in
          let rep = Fn_online.Engine.audit eng in
          if rep.Fn_online.Engine.faults <> 0 then audits_ok := false;
          kept_mask
        end
        else
          (Faultnet.Prune2.run ~obs ~rng ?domains g ~alive:faults.Fault_set.alive
             ~alpha_e ~epsilon)
            .Faultnet.Prune2.kept
      in
      let kept = Bitset.cardinal kept_mask in
      let exp_h =
        if kept >= 2 then
          Workload.edge_expansion_estimate ~obs ?domains rng ~alive:kept_mask g
        else 0.0
      in
      (alpha_e, kept, exp_h, exp_h /. alpha_e)
    in
    if 2 * kept < nn then all_kept := false;
    if ratio < 0.3 then ratio_ok := false;
    Fn_stats.Table.add_row table
      [
        string_of_int d;
        name;
        string_of_int nn;
        string_of_int delta;
        Printf.sprintf "%.4f" alpha_e;
        Printf.sprintf "%.2f" p;
        string_of_int kept;
        Printf.sprintf "%.4f" exp_h;
        Printf.sprintf "%.2f" ratio;
        Printf.sprintf "%.1e" (Faultnet.Theorem.mesh_fault_budget ~d);
      ]
  in
  List.iter
    (fun d ->
      let can = Fn_topology.Can.build rng ~d ~n in
      eval "CAN" (Fn_topology.Can.graph can) d;
      let side = int_of_float (Float.round (Float.pow (float_of_int n) (1.0 /. float_of_int d))) in
      let torus, _ = Fn_topology.Torus.cube ~d ~side:(max 3 side) in
      eval "torus" torus d)
    dims;
  let checks =
    [
      ("every survivor keeps >= half the overlay", !all_kept);
      ("survivor edge expansion stays >= 0.3 x fault-free expansion", !ratio_ok);
    ]
  in
  let checks =
    if online then
      checks
      @ [ ("(online) incremental certificates equal from-scratch audits", !audits_ok) ]
    else checks
  in
  let notes =
    [
      "p = 0.05 is orders of magnitude above the worst-case Theorem 3.4 budget (p_thy \
       column); the theorem is conservative, the phenomenon is robust";
    ]
  in
  let notes =
    if online then
      notes
      @ [
          "online mode: survivors come from the incremental Fn_online.Engine cascade \
           (radius-2 ball certificates), the fault set applied as one streamed batch";
        ]
    else notes
  in
  {
    Outcome.id = "E9";
    title = "Conclusion: CAN overlays keep size and expansion under churn (like meshes)";
    table;
    checks;
    notes;
  }
