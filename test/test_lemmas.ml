(* Executable versions of the paper's auxiliary lemmas — the counting
   and accounting facts the main theorems lean on. *)

open Fn_graph
open Testutil

(* ---- Claim 3.2: the Eulerian-walk counting bound — a graph of
   degree delta has at most n * delta^(2r) connected r-vertex
   subgraphs.  Verified exhaustively on small instances. *)

let count_connected_subsets g =
  (* counts.(r) = number of connected node subsets of size r *)
  let n = Graph.num_nodes g in
  let nbr = Array.init n (fun v -> Graph.fold_neighbors g v (fun acc w -> acc lor (1 lsl w)) 0) in
  let connected_mask mask =
    if mask = 0 then false
    else begin
      let start = mask land -mask in
      let visited = ref start in
      let frontier = ref start in
      while !frontier <> 0 do
        let next = ref 0 in
        let rem = ref !frontier in
        while !rem <> 0 do
          let low = !rem land - !rem in
          let v =
            let rec idx b k = if b land 1 = 1 then k else idx (b lsr 1) (k + 1) in
            idx low 0
          in
          next := !next lor (nbr.(v) land mask land lnot !visited);
          rem := !rem lxor low
        done;
        visited := !visited lor !next;
        frontier := !next
      done;
      !visited = mask
    end
  in
  let counts = Array.make (n + 1) 0 in
  for mask = 1 to (1 lsl n) - 1 do
    if connected_mask mask then begin
      let r =
        let rec pop x acc = if x = 0 then acc else pop (x land (x - 1)) (acc + 1) in
        pop mask 0
      in
      counts.(r) <- counts.(r) + 1
    end
  done;
  counts

let test_claim32_counting () =
  (* Claim 3.2 counts, via Eulerian walks, the connected r-vertex
     subgraphs of the base expander G: at most n * delta^(2r).
     Connected node subsets are a subfamily of connected subgraphs, so
     the bound must hold for them; check it exhaustively. *)
  List.iter
    (fun (name, g, delta) ->
      let n = Graph.num_nodes g in
      let counts = count_connected_subsets g in
      for r = 1 to n do
        let bound = float_of_int n *. Float.pow (float_of_int delta) (2.0 *. float_of_int r) in
        if float_of_int counts.(r) > bound then
          Alcotest.failf "%s r=%d: %d connected subsets > bound %.0f" name r counts.(r) bound
      done)
    [
      ("mesh 3x3", fst (Fn_topology.Mesh.graph [| 3; 3 |]), 4);
      ("cycle 10", Fn_topology.Basic.cycle 10, 2);
      ("K5", Fn_topology.Basic.complete 5, 4);
    ]

(* ---- Lemma 2.2: boundary subadditivity of Prune's culled sets:
   |Γ(∪ S_i)| <= Σ |Γ(S_i)| <= α ε |∪ S_i|, all measured in G_f. *)

let check_lemma22 g alive (res : Faultnet.Prune.result) =
  match res.Faultnet.Prune.culled with
  | [] -> true
  | culled ->
    let union = Bitset.create (Graph.num_nodes g) in
    List.iter (fun c -> Bitset.union_into union c.Faultnet.Prune.set) culled;
    let union_boundary = Boundary.node_boundary_size ~alive (Gview.Csr g) union in
    (* per-set boundaries in G_f (the lemma's statement): each culled
       certificate stores the boundary in G_i, which only shrinks as
       nodes are removed, so the G_f boundary is bounded by the sum of
       per-G_f boundaries; measure them directly *)
    let sum_boundaries =
      List.fold_left
        (fun acc c -> acc + Boundary.node_boundary_size ~alive (Gview.Csr g) c.Faultnet.Prune.set)
        0 culled
    in
    let threshold_mass =
      res.Faultnet.Prune.threshold *. float_of_int (Bitset.cardinal union)
    in
    union_boundary <= sum_boundaries
    && (* the second inequality of the lemma holds for the G_i
          boundaries recorded in the certificates *)
    float_of_int
      (List.fold_left (fun acc c -> acc + c.Faultnet.Prune.boundary) 0 culled)
    <= threshold_mass +. 1e-9

let test_lemma22_path () =
  let g = Fn_topology.Basic.path 16 in
  let alive = Bitset.create_full 16 in
  let res = Faultnet.Prune.run ~rng:(Fn_prng.Rng.create 1) g ~alive ~alpha:4.0 ~epsilon:0.5 in
  check_bool "culled something" true (res.Faultnet.Prune.culled <> []);
  check_bool "lemma 2.2 accounting" true (check_lemma22 g alive res)

let prop_lemma22_random =
  prop "Lemma 2.2 on random graphs with faults" ~count:50
    (Testutil.gen_connected_graph ~max_n:14 ())
    (fun g ->
      let r = Fn_prng.Rng.create 31 in
      let faults = Fn_faults.Random_faults.nodes_iid r g 0.25 in
      let alive = faults.Fn_faults.Fault_set.alive in
      if Bitset.cardinal alive < 2 then true
      else begin
        let res = Faultnet.Prune.run ~rng:r g ~alive ~alpha:1.0 ~epsilon:0.5 in
        check_lemma22 g alive res
      end)

(* ---- Theorem 2.1's size accounting, replayed directly from the
   certificates: n - |H| = Σ|S_i| and every S_i was below threshold. *)

let prop_thm21_size_accounting =
  prop "culled mass equals alive minus kept" ~count:50
    (Testutil.gen_connected_graph ~max_n:14 ())
    (fun g ->
      let r = Fn_prng.Rng.create 77 in
      let faults = Fn_faults.Random_faults.nodes_iid r g 0.2 in
      let alive = faults.Fn_faults.Fault_set.alive in
      if Bitset.cardinal alive < 2 then true
      else begin
        let res = Faultnet.Prune.run ~rng:r g ~alive ~alpha:0.8 ~epsilon:0.5 in
        Faultnet.Prune.total_culled res
        = Bitset.cardinal alive - Bitset.cardinal res.Faultnet.Prune.kept
      end)

let () =
  Alcotest.run "lemmas"
    [
      ("claim 3.2", [ case "connected-subset counting" test_claim32_counting ]);
      ( "lemma 2.2",
        [ case "path culls" test_lemma22_path ] );
      ("properties", [ prop_lemma22_random; prop_thm21_size_accounting ]);
    ]
