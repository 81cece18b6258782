(* Gview: implicit generators vs their materializing twins, and
   algorithm agreement across the two arms. *)

open Fn_graph
open Fn_topology
open Fn_prng
open Testutil

(* ---- edge-for-edge agreement with the materializing constructors ---- *)

let check_twin name view twin =
  let m = Gview.materialize view in
  check_bool (name ^ ": materialized = twin") true (Graph.equal m twin);
  (* degree metadata agrees everywhere, max bound is exact *)
  let n = Graph.num_nodes twin in
  for v = 0 to n - 1 do
    check_int
      (Printf.sprintf "%s: degree %d" name v)
      (Graph.degree twin v) (Gview.degree view v)
  done;
  if n > 0 then check_int (name ^ ": max degree") (Graph.max_degree twin) (Gview.max_degree view);
  (* has_edge spot checks against the twin, random pairs + all edges *)
  let rng = Rng.create 0x6E1D in
  for _ = 1 to 50 do
    if n > 0 then begin
      let u = Rng.int rng n and v = Rng.int rng n in
      check_bool
        (Printf.sprintf "%s: has_edge %d %d" name u v)
        (Graph.has_edge twin u v) (Gview.has_edge view u v)
    end
  done;
  Graph.iter_edges twin (fun u v ->
      check_bool (Printf.sprintf "%s: edge %d-%d" name u v) true (Gview.has_edge view u v))

let test_mesh_twins () =
  List.iter
    (fun dims ->
      let twin, _ = Mesh.graph dims in
      check_twin
        (Printf.sprintf "mesh[%s]" (String.concat "x" (List.map string_of_int (Array.to_list dims))))
        (Implicit.mesh dims) twin)
    [ [| 1 |]; [| 2 |]; [| 7 |]; [| 3; 4 |]; [| 2; 2 |]; [| 2; 2; 2 |]; [| 4; 1; 3 |]; [| 2; 3; 5 |] ]

let test_torus_twins () =
  List.iter
    (fun dims ->
      let twin, _ = Torus.graph dims in
      check_twin
        (Printf.sprintf "torus[%s]" (String.concat "x" (List.map string_of_int (Array.to_list dims))))
        (Implicit.torus dims) twin)
    [ [| 1 |]; [| 2 |]; [| 3 |]; [| 8 |]; [| 2; 2 |]; [| 2; 3 |]; [| 4; 4 |]; [| 1; 5 |]; [| 2; 3; 4 |] ]

let test_hypercube_twins () =
  for d = 0 to 7 do
    check_twin
      (Printf.sprintf "hypercube %d" d)
      (Implicit.hypercube d) (Hypercube.graph d)
  done

(* materialized rows come out sorted — the Graph invariant checker
   would reject anything else, but assert it directly too *)
let test_materialize_sorted_rows () =
  let g = Gview.materialize (Implicit.hypercube 5) in
  for v = 0 to Graph.num_nodes g - 1 do
    let prev = ref (-1) in
    Graph.iter_neighbors g v (fun w ->
        check_bool "strictly increasing row" true (w > !prev);
        prev := w)
  done

(* ---- materialize validation: broken generators are rejected ---- *)

let test_materialize_rejects () =
  let raises name view =
    match Gview.materialize view with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "self-loop" (Gview.implicit ~n:3 ~max_degree:2 (fun v f -> f v));
  raises "out of range" (Gview.implicit ~n:3 ~max_degree:2 (fun _ f -> f 7));
  raises "duplicate"
    (Gview.implicit ~n:2 ~max_degree:3 (fun v f ->
         f (1 - v);
         f (1 - v)));
  raises "asymmetric"
    (Gview.implicit ~n:3 ~max_degree:1 (fun v f -> if v = 0 then f 1));
  raises "max_degree lie"
    (Gview.implicit ~n:4 ~max_degree:1 (fun v f ->
         if v = 0 then begin
           f 1;
           f 2;
           f 3
         end
         else f 0));
  raises "degree lie"
    (Gview.implicit ~n:2 ~max_degree:2
       ~degree:(fun _ -> 2)
       (fun v f -> f (1 - v)))

(* ---- the two arms agree on traversal / boundary / components ---- *)

let arms name view twin =
  let csr = Gview.Csr twin in
  let n = Graph.num_nodes twin in
  check_bool (name ^ ": distances") true
    (Bfs.distances csr 0 = Bfs.distances view 0);
  check_bool (name ^ ": multi-source") true
    (Bfs.multi_source_distances csr [| 0; n - 1 |]
    = Bfs.multi_source_distances view [| 0; n - 1 |]);
  check_bool (name ^ ": ball r=2") true
    (Bitset.equal (Bfs.ball csr 0 2) (Bfs.ball view 0 2));
  let alive = Bitset.create_full n in
  Bitset.remove alive (n / 2);
  let u = Bfs.ball ~alive csr 0 1 in
  check_int (name ^ ": node boundary") (Boundary.node_boundary_size ~alive csr u)
    (Boundary.node_boundary_size ~alive view u);
  check_int (name ^ ": edge boundary")
    (Boundary.edge_boundary_size ~alive csr u)
    (Boundary.edge_boundary_size ~alive view u);
  let ca = Components.compute ~alive csr and cb = Components.compute ~alive view in
  check_int (name ^ ": component count") ca.Components.count cb.Components.count;
  check_bool (name ^ ": component labels") true (ca.Components.labels = cb.Components.labels);
  (* none of the results below depends on neighbor order, so both arms
     must agree exactly; floats are compared bit for bit *)
  let same_set what a b = check_bool (name ^ ": " ^ what) true (Bitset.equal a b) in
  let same_float what a b = check_bool (name ^ ": " ^ what) true (Float.equal a b) in
  (* a size that closes a BFS layer makes the grown prefix order-free *)
  let k = Bitset.cardinal (Bfs.ball csr 0 2) in
  same_set "ball of size" (Bfs.ball_of_size csr 0 k) (Bfs.ball_of_size view 0 k);
  same_set "node boundary set" (Boundary.node_boundary ~alive csr u)
    (Boundary.node_boundary ~alive view u);
  same_float "node expansion" (Boundary.node_expansion ~alive csr u)
    (Boundary.node_expansion ~alive view u);
  same_float "edge expansion" (Boundary.edge_expansion ~alive csr u)
    (Boundary.edge_expansion ~alive view u);
  check_bool (name ^ ": is connected")
    (Components.is_connected ~alive csr)
    (Components.is_connected ~alive view);
  same_set "largest members" (Components.largest_members ~alive csr)
    (Components.largest_members ~alive view);
  same_set "dfs reachable" (Dfs.reachable ~alive csr 0) (Dfs.reachable ~alive view 0);
  check_bool (name ^ ": connected subset")
    (Dfs.is_connected_subset csr u)
    (Dfs.is_connected_subset view u);
  check_bool (name ^ ": is compact")
    (Faultnet.Compact.is_compact ~alive csr u)
    (Faultnet.Compact.is_compact ~alive view u);
  same_set "compactify" (Faultnet.Compact.compactify ~alive csr u)
    (Faultnet.Compact.compactify ~alive view u);
  let module Cut = Fn_expansion.Cut in
  List.iter
    (fun (what, objective) ->
      same_float ("cut value " ^ what)
        (Cut.value_of ~alive csr objective u)
        (Cut.value_of ~alive view objective u);
      (* a fixed score scattered over the node ids *)
      let score = Array.init n (fun v -> float_of_int (v * 7919 mod n)) in
      let a = Fn_expansion.Sweep.best_prefix ~alive csr ~score objective in
      let b = Fn_expansion.Sweep.best_prefix ~alive view ~score objective in
      same_set ("sweep set " ^ what) a.Cut.set b.Cut.set;
      same_float ("sweep value " ^ what) a.Cut.value b.Cut.value)
    [ ("node", Cut.Node); ("edge", Cut.Edge) ]

let test_arm_agreement () =
  let twin_t, _ = Torus.graph [| 4; 5 |] in
  arms "torus 4x5" (Implicit.torus [| 4; 5 |]) twin_t;
  arms "mesh 3x4x2" (Implicit.mesh [| 3; 4; 2 |]) (fst (Mesh.graph [| 3; 4; 2 |]));
  arms "hypercube 5" (Implicit.hypercube 5) (Hypercube.graph 5)

(* resumable grower: same doubling schedule on both arms *)
let test_ball_grower_arms () =
  let dims = [| 5; 5 |] in
  let twin, _ = Torus.graph dims in
  let ga = Bfs.ball_grower (Gview.Csr twin) 7 in
  let gb = Bfs.ball_grower (Implicit.torus dims) 7 in
  List.iter
    (fun k ->
      let a = Bfs.grow_ball ga k and b = Bfs.grow_ball gb k in
      check_int (Printf.sprintf "size at %d" k) (Bitset.cardinal a) (Bitset.cardinal b))
    [ 2; 4; 8; 16; 25 ]

(* percolation curves are byte-identical across arms for the same rng *)
let test_percolation_arms () =
  let dims = [| 4; 6 |] in
  let twin, _ = Torus.graph dims in
  let view = Implicit.torus dims in
  let site_a = Fn_percolation.Newman_ziff.site_run (Rng.create 42) (Gview.Csr twin) in
  let site_b = Fn_percolation.Newman_ziff.site_run (Rng.create 42) view in
  check_bool "site curves" true
    (site_a.Fn_percolation.Newman_ziff.occupied_largest
    = site_b.Fn_percolation.Newman_ziff.occupied_largest);
  let bond_a = Fn_percolation.Newman_ziff.bond_run (Rng.create 43) (Gview.Csr twin) in
  let bond_b = Fn_percolation.Newman_ziff.bond_run (Rng.create 43) view in
  check_bool "bond curves" true
    (bond_a.Fn_percolation.Newman_ziff.occupied_largest
    = bond_b.Fn_percolation.Newman_ziff.occupied_largest)

(* Prune on a view: the CSR arm reproduces Prune.run exactly, and the
   implicit arm culls a planted low-expansion appendage *)
let test_prune_arms () =
  let open Faultnet in
  let dims = [| 6; 6 |] in
  let twin, _ = Torus.graph dims in
  let n = Graph.num_nodes twin in
  let alive = Bitset.create_full n in
  let a = Prune.run twin ~alive ~alpha:1.0 ~epsilon:0.5 in
  let b = Prune.run_v (Gview.Csr twin) ~alive ~alpha:1.0 ~epsilon:0.5 in
  check_bool "csr arm = wrapper" true (Bitset.equal a.Prune.kept b.Prune.kept);
  check_int "same rounds" a.Prune.iterations b.Prune.iterations;
  (* both arms under the same representation-agnostic finder: kill
     node 0's four torus neighbors so {0} is a one-node component;
     the round loop (scratch boundary, cull accounting) must behave
     identically on csr and implicit inputs *)
  let finder ~alive view ~threshold =
    ignore threshold;
    Components.smallest_members ~alive view
  in
  let alive2 = Bitset.create_full n in
  List.iter (Bitset.remove alive2) [ 1; 5; 6; 30 ];
  let r = Prune.run_v ~finder (Implicit.torus dims) ~alive:alive2 ~alpha:1.0 ~epsilon:0.9 in
  let r' = Prune.run_v ~finder (Gview.Csr twin) ~alive:alive2 ~alpha:1.0 ~epsilon:0.9 in
  check_bool "culled the isolated node" true
    (not (Bitset.mem r.Prune.kept 0) && r.Prune.iterations >= 1);
  check_bool "arms agree under shared finder" true (Bitset.equal r.Prune.kept r'.Prune.kept);
  check_int "arms agree on rounds" r'.Prune.iterations r.Prune.iterations

(* ---- one answer per topology: estimates and Prune on both arms ---- *)

(* Two m×m tori joined by one edge, as an implicit view whose
   neighbor order is not ascending (x+1, x−1, y+1, y−1, then the
   bridge).  Node (x, y) of torus t is t·m² + y·m + x; the bridge joins
   (0, 0) of the first torus to (m/2, m/2) of the second. *)
let bridged_tori m =
  let sq = m * m in
  let a = 0 and b = sq + ((m / 2) * m) + (m / 2) in
  let iter v f =
    let base = v / sq * sq and x = v mod m and y = v mod sq / m in
    let at x y = base + (((y + m) mod m) * m) + ((x + m) mod m) in
    f (at (x + 1) y);
    f (at (x - 1) y);
    f (at x (y + 1));
    f (at x (y - 1));
    if v = a then f b else if v = b then f a
  in
  let degree v = if v = a || v = b then 5 else 4 in
  (Gview.implicit ~n:(2 * sq) ~max_degree:5 ~degree iter, a, b)

(* iid node faults of probability [p] with both bridge ends repaired,
   under two mask schemes: the fault injector (seed 1), and one
   Bernoulli draw per node (seed m·1000 + 100p).  The second is kept
   because the estimate kernels disagreed across the arms on it: at
   m = 8, p = 0.05, the multi-start portfolio that once ran at
   domains > 1, run on the view itself instead of its CSR form, read
   edge 0.1333 against the twin's 0.1273 (local search from
   size-capped balls ended elsewhere); run_v's materialization below
   its cap is what makes the arms agree. *)
let bridged_masks twin ~m p (a, b) =
  let repair kept =
    Bitset.add kept a;
    Bitset.add kept b;
    kept
  in
  let injector =
    (Fn_faults.Random_faults.nodes_iid (Rng.create 1) twin p).Fn_faults.Fault_set.alive
  in
  let rng = Rng.create ((m * 1000) + int_of_float (100.0 *. p)) in
  let bernoulli = Bitset.create_full (Graph.num_nodes twin) in
  for v = 0 to Graph.num_nodes twin - 1 do
    if Rng.bernoulli rng p then Bitset.remove bernoulli v
  done;
  [ ("injector", repair injector); ("bernoulli", repair bernoulli) ]

let bridged_cases sides f =
  List.iter
    (fun m ->
      let view, a, b = bridged_tori m in
      let twin = Gview.materialize view in
      List.iter
        (fun p ->
          List.iter
            (fun (scheme, kept) ->
              List.iter
                (fun domains ->
                  f
                    (Printf.sprintf "m=%d p=%g %s domains=%d" m p scheme domains)
                    ~m ~p ~domains view twin kept)
                [ 1; 2 ])
            (bridged_masks twin ~m p (a, b)))
        [ 0.0; 0.05; 0.1 ])
    sides

(* alpha? and the edge estimate: the same bits and witness on the
   implicit view and its materialized twin (the estimator runs on the
   CSR form below its cap, so this holds for every mask), and 1/m²
   (one torus behind one bridge end) without faults *)
let test_one_answer_per_topology () =
  let module Est = Fn_expansion.Estimate in
  bridged_cases [ 8; 16; 32 ] (fun label ~m ~p ~domains view twin kept ->
      let alpha v = Fn_online.Alpha_cache.reference ~seed:1 ~domains v ~kept in
      let implicit = alpha view and csr = alpha (Gview.Csr twin) in
      check_bool (label ^ ": alpha bits") true
        (Int64.equal (Int64.bits_of_float implicit) (Int64.bits_of_float csr));
      if p = 0.0 then
        check_bool (label ^ ": alpha = 1/m^2") true (implicit = 1.0 /. float_of_int (m * m));
      let edge v = Est.run_v ~alive:kept ~domains v Fn_expansion.Cut.Edge in
      let e = edge view and e' = edge (Gview.Csr twin) in
      check_bool (label ^ ": edge value bits") true
        (Int64.equal (Int64.bits_of_float e.Est.value) (Int64.bits_of_float e'.Est.value));
      check_bool (label ^ ": edge witness") true (Bitset.equal e.Est.witness e'.Est.witness))

(* Prune with the default finder on the implicit view culls exactly
   what Prune.run culls on the twin, at a threshold of 2/m², above the
   bridge cut (one node over at least 0.85·m² survivors), and the
   domain count changes nothing.  Every case culls the bridge side but
   one, on both arms and at both domain counts alike: at m = 8,
   p = 0.05 under the Bernoulli mask the smaller torus holds the high
   end of the Fiedler vector, the spectral slice sweeps ascending
   prefixes only, and the portfolio reads 0.05 against the bridge's
   1/58. *)
let test_prune_one_answer_per_topology () =
  let open Faultnet in
  let known_miss label = String.starts_with ~prefix:"m=8 p=0.05 bernoulli " label in
  let same_run label r r' =
    check_bool (label ^ ": kept") true (Bitset.equal r.Prune.kept r'.Prune.kept);
    check_int (label ^ ": iterations") r'.Prune.iterations r.Prune.iterations;
    check_bool (label ^ ": culled sets") true
      (List.equal (fun c c' -> Bitset.equal c.Prune.set c'.Prune.set) r.Prune.culled
         r'.Prune.culled)
  in
  bridged_cases [ 8; 16 ] (fun label ~m ~p:_ ~domains view twin alive ->
      let alpha = 4.0 /. float_of_int (m * m) and epsilon = 0.5 in
      let r = Prune.run_v ~domains view ~alive ~alpha ~epsilon in
      same_run label r (Prune.run ~domains twin ~alive ~alpha ~epsilon);
      if domains > 1 then
        same_run (label ^ " against domains=1") r
          (Prune.run_v ~domains:1 view ~alive ~alpha ~epsilon);
      check_bool (label ^ ": culls the bridge side") (not (known_miss label))
        (r.Prune.iterations >= 1))

let test_ball_witness () =
  (* two K4s joined by one bridge: a radius-1 ball from inside either
     clique is exactly half the graph and witnesses the bridge cut *)
  let clique base = [ (base, base + 1); (base, base + 2); (base, base + 3);
                      (base + 1, base + 2); (base + 1, base + 3); (base + 2, base + 3) ] in
  let g = Graph.of_edges 8 (clique 0 @ clique 4 @ [ (3, 4) ]) in
  match Fn_expansion.Estimate.ball_witness (Gview.Csr g) Fn_expansion.Cut.Edge with
  | None -> Alcotest.fail "expected a witness"
  | Some cut ->
    check_bool "found the bridge" true (cut.Fn_expansion.Cut.value <= 0.25 +. 1e-9)

(* ---- counted growth: the grower's boundary counts ---- *)

module Cut = Fn_expansion.Cut

let mask_of rng n p =
  let m = Bitset.create_full n in
  for v = 0 to n - 1 do
    if Rng.unit_float rng < p then Bitset.remove m v
  done;
  m

(* CSR mesh, torus and expander plus the implicit torus *)
let growth_views =
  lazy
    (let mesh, _ = Mesh.cube ~d:2 ~side:9 in
     let torus, _ = Torus.cube ~d:2 ~side:8 in
     let expander = Expander.random_regular (Rng.create 5) ~n:96 ~d:4 in
     [
       ("mesh 9x9", Gview.Csr mesh);
       ("torus 8x8", Gview.Csr torus);
       ("expander 96/4", Gview.Csr expander);
       ("implicit torus 10x12", Implicit.torus [| 10; 12 |]);
     ])

(* no mask, and masks killing a fifth and a half of the nodes: balls
   then border dead nodes, and the half mask splits the graph into
   components that growth exhausts *)
let growth_masks n =
  let rng = Rng.create (n + 17) in
  [ ("all alive", None); ("p=0.2", Some (mask_of rng n 0.2)); ("p=0.5", Some (mask_of rng n 0.5)) ]

(* At every doubled size the grower's counts equal a re-scan of the
   set it returns, on a fresh grower and on one restarted from every
   earlier source. *)
let test_counted_growth () =
  List.iter
    (fun (name, view) ->
      let n = Gview.num_nodes view in
      List.iter
        (fun (mname, alive) ->
          let is_alive v = match alive with None -> true | Some m -> Bitset.mem m v in
          let srcs = List.filter is_alive [ 0; 1; n / 3; n / 2; n - 1 ] in
          let shared = Bfs.ball_grower ?alive view (List.hd srcs) in
          List.iter
            (fun src ->
              Bfs.restart_ball shared src;
              let fresh = Bfs.ball_grower ?alive view src in
              let k = ref 1 and step = ref 0 in
              while !k <= 2 * n do
                let label = Printf.sprintf "%s, %s, src %d, k %d" name mname src !k in
                let set = Bfs.grow_ball fresh !k in
                (* the restarted grower builds no set at every other size,
                   so the next grow_ball catches up over two sizes *)
                if !step mod 2 = 1 then Bfs.extend_ball shared !k
                else
                  check_bool (label ^ ": restarted ball") true
                    (Bitset.equal set (Bfs.grow_ball shared !k));
                check_int (label ^ ": size") (Bitset.cardinal set) (Bfs.ball_size fresh);
                check_int (label ^ ": restarted size") (Bfs.ball_size fresh) (Bfs.ball_size shared);
                List.iter
                  (fun (what, g) ->
                    check_int (label ^ ": node boundary, " ^ what)
                      (Boundary.node_boundary_size ?alive view set)
                      (Bfs.ball_node_boundary g);
                    check_int (label ^ ": edge boundary, " ^ what)
                      (Boundary.edge_boundary_size ?alive view set)
                      (Bfs.ball_edge_boundary g))
                  [ ("fresh", fresh); ("restarted", shared) ];
                incr step;
                k := !k * 2
              done)
            srcs)
        (growth_masks n))
    (Lazy.force growth_views)

let test_counted_growth_edges () =
  (* before the source is collected the ball is empty: both counts 0 *)
  let view = Implicit.torus [| 4; 4 |] in
  let g = Bfs.ball_grower view 5 in
  check_int "empty ball: node boundary" 0 (Bfs.ball_node_boundary g);
  check_int "empty ball: edge boundary" 0 (Bfs.ball_edge_boundary g);
  Bfs.extend_ball g 1;
  check_int "source alone: node boundary" 4 (Bfs.ball_node_boundary g);
  check_int "source alone: edge boundary" 4 (Bfs.ball_edge_boundary g);
  Bfs.extend_ball g 16;
  check_int "whole graph: size" 16 (Bfs.ball_size g);
  check_int "whole graph: node boundary" 0 (Bfs.ball_node_boundary g);
  check_int "whole graph: edge boundary" 0 (Bfs.ball_edge_boundary g);
  let alive = Bitset.of_list 16 [ 0; 1 ] in
  let g = Bfs.ball_grower ~alive view 0 in
  Alcotest.check_raises "restart at a dead source" (Invalid_argument "Bfs: source not alive")
    (fun () -> Bfs.restart_ball g 5)

(* ---- the ball witness against its re-scan oracle ---- *)

(* Estimate.ball_witness as it was before counted growth: a fresh
   grower per sample, every doubled ball materialized and its
   boundary re-scanned through Boundary.Scratch, Cut.better folded
   over samples in order, each largest first. *)
module Rescan_witness = struct
  let ball_samples = 8

  let sample_pool ?alive view =
    match alive with
    | Some m ->
      let nodes = Bitset.to_array m in
      (Array.length nodes, Some nodes)
    | None -> (Gview.num_nodes view, None)

  let pick_source pool rng total =
    match pool with Some nodes -> nodes.(Rng.int rng total) | None -> Rng.int rng total

  let balls_from ?alive view ~total ~half src =
    let grower = Bfs.ball_grower ?alive view src in
    let out = ref [] in
    let size = ref 2 in
    while !size <= half do
      let ball = Bfs.grow_ball grower !size in
      let c = Bfs.ball_size grower in
      if c >= 1 && 2 * c <= total then out := ball :: !out;
      size := !size * 2
    done;
    !out

  let ball_witness ?alive ~rng view objective =
    let total, pool = sample_pool ?alive view in
    if total < 2 then None
    else begin
      let scratch = Boundary.Scratch.create (Gview.num_nodes view) in
      let half = total / 2 in
      let best = ref None in
      for _ = 1 to ball_samples do
        let src = pick_source pool rng total in
        List.iter
          (fun set ->
            let size = Bitset.cardinal set in
            let value =
              match objective with
              | Cut.Node ->
                float_of_int (Boundary.Scratch.node_boundary_size scratch ?alive view set)
                /. float_of_int size
              | Cut.Edge ->
                float_of_int (Boundary.Scratch.edge_boundary_size scratch ?alive view set)
                /. float_of_int (min size (total - size))
            in
            let cut = { Cut.set; value; objective } in
            best := Some (match !best with Some b -> Cut.better b cut | None -> cut))
          (balls_from ?alive view ~total ~half src)
      done;
      !best
    end
end

let same_witness label expect got =
  match (expect, got) with
  | None, None -> ()
  | Some a, Some b ->
    check_bool (label ^ ": set") true (Bitset.equal a.Cut.set b.Cut.set);
    check_bool (label ^ ": value bits") true
      (Int64.equal (Int64.bits_of_float a.Cut.value) (Int64.bits_of_float b.Cut.value))
  | Some _, None -> Alcotest.failf "%s: witness lost" label
  | None, Some _ -> Alcotest.failf "%s: witness appeared" label

let test_ball_witness_matches_rescan () =
  let path60 = Basic.path 60 in
  (* components of 5 nodes: every sample exhausts its component at
     sizes 8 and 16, repeating the same ball *)
  let islands = Bitset.create_full 60 in
  List.iter (fun v -> if v mod 6 = 5 then Bitset.remove islands v) (List.init 60 Fun.id);
  (* 3 alive nodes: total/2 = 1, so no doubled size fits *)
  let three = Bitset.of_list 60 [ 10; 11; 40 ] in
  let cases =
    List.concat_map
      (fun (name, view) ->
        List.map (fun (mname, alive) -> (name ^ ", " ^ mname, view, alive))
          (growth_masks (Gview.num_nodes view)))
      (Lazy.force growth_views)
    @ [
        ("path 60, islands of 5", Gview.Csr path60, Some islands);
        ("path 60, 3 alive", Gview.Csr path60, Some three);
        ("path 60, 1 alive", Gview.Csr path60, Some (Bitset.of_list 60 [ 7 ]));
      ]
  in
  List.iter
    (fun (label, view, alive) ->
      List.iter
        (fun (oname, objective) ->
          for seed = 1 to 4 do
            let label = Printf.sprintf "%s, %s, seed %d" label oname seed in
            let expect =
              Rescan_witness.ball_witness ?alive ~rng:(Rng.create seed) view objective
            in
            let rng = Rng.create seed in
            let got = Fn_expansion.Estimate.ball_witness ?alive ~rng view objective in
            same_witness label expect got;
            (* the caller's rng advances as it did *)
            let rng' = Rng.create seed in
            ignore (Rescan_witness.ball_witness ?alive ~rng:rng' view objective);
            check_int (label ^ ": rng state") (Rng.int rng' 1_000_000) (Rng.int rng 1_000_000)
          done)
        [ ("node", Cut.Node); ("edge", Cut.Edge) ])
    cases;
  check_bool "3 alive: no witness" true
    (Option.is_none (Fn_expansion.Estimate.ball_witness ~alive:three (Gview.Csr path60) Cut.Node))

(* edge count and edge walk of an implicit view equal its twin's *)
let test_edge_walk_arms () =
  let twin, _ = Torus.graph [| 4; 5 |] in
  let view = Implicit.torus [| 4; 5 |] in
  check_int "num_edges" (Graph.num_edges twin) (Gview.num_edges view);
  let edges v =
    let acc = ref [] in
    Gview.iter_edges v (fun a b -> acc := (a, b) :: !acc);
    List.sort Graph.compare_int_pair !acc
  in
  check_bool "same edges, u < v" true
    (edges view = edges (Gview.Csr twin) && List.for_all (fun (a, b) -> a < b) (edges view))

let () =
  Alcotest.run "gview"
    [
      ( "twins",
        [
          case "mesh" test_mesh_twins;
          case "torus" test_torus_twins;
          case "hypercube" test_hypercube_twins;
          case "sorted rows" test_materialize_sorted_rows;
          case "materialize rejects" test_materialize_rejects;
        ] );
      ( "arms",
        [
          case "traversal/boundary/components" test_arm_agreement;
          case "ball grower" test_ball_grower_arms;
          case "percolation curves" test_percolation_arms;
          case "prune" test_prune_arms;
          case "ball witness" test_ball_witness;
          case "one answer per topology" test_one_answer_per_topology;
          case "prune: one answer per topology" test_prune_one_answer_per_topology;
        ] );
      ( "counted growth",
        [
          case "counts equal re-scans" test_counted_growth;
          case "empty, source-only and whole balls" test_counted_growth_edges;
          case "ball witness = re-scan oracle" test_ball_witness_matches_rescan;
          case "edge walk on both arms" test_edge_walk_arms;
        ] );
    ]
