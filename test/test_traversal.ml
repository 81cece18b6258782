open Fn_graph
open Testutil

let path5 = Fn_topology.Basic.path 5
let cycle6 = Fn_topology.Basic.cycle 6
let mesh4, _ = Fn_topology.Mesh.cube ~d:2 ~side:4

let test_bfs_path () =
  let d = Bfs.distances (Gview.Csr path5) 0 in
  check_bool "path distances" true (d = [| 0; 1; 2; 3; 4 |]);
  let d = Bfs.distances (Gview.Csr path5) 2 in
  check_bool "from middle" true (d = [| 2; 1; 0; 1; 2 |])

let test_bfs_cycle () =
  let d = Bfs.distances (Gview.Csr cycle6) 0 in
  check_bool "cycle distances" true (d = [| 0; 1; 2; 3; 2; 1 |])

let test_bfs_masked () =
  (* killing node 2 of the path cuts 3,4 off *)
  let alive = Bitset.of_list 5 [ 0; 1; 3; 4 ] in
  let d = Bfs.distances ~alive (Gview.Csr path5) 0 in
  check_bool "masked distances" true (d = [| 0; 1; -1; -1; -1 |])

let test_bfs_source_checks () =
  Alcotest.check_raises "bad source" (Invalid_argument "Bfs: source out of range") (fun () ->
      ignore (Bfs.distances (Gview.Csr path5) 9));
  let alive = Bitset.of_list 5 [ 1 ] in
  Alcotest.check_raises "dead source" (Invalid_argument "Bfs: source not alive") (fun () ->
      ignore (Bfs.distances ~alive (Gview.Csr path5) 0))

let test_multi_source () =
  let d = Bfs.multi_source_distances (Gview.Csr path5) [| 0; 4 |] in
  check_bool "two sources" true (d = [| 0; 1; 2; 1; 0 |])

let test_reachable () =
  let alive = Bitset.of_list 5 [ 0; 1; 3; 4 ] in
  let r = Dfs.reachable ~alive (Gview.Csr path5) 3 in
  check_bool "reachable half" true (Bitset.to_list r = [ 3; 4 ])

let test_tree_and_path_to () =
  let parents = Bfs.tree mesh4 0 in
  check_int "root parent" 0 parents.(0);
  let p = Bfs.path_to ~parents 15 in
  check_int "path length = dist + 1" 7 (List.length p);
  check_bool "starts at root" true (List.hd p = 0);
  (* consecutive hops are edges *)
  let rec edges_ok = function
    | a :: (b :: _ as rest) -> Graph.has_edge mesh4 a b && edges_ok rest
    | _ -> true
  in
  check_bool "path follows edges" true (edges_ok p);
  Alcotest.check_raises "unreachable" Not_found (fun () ->
      let alive = Bitset.of_list 5 [ 0; 1; 3; 4 ] in
      ignore (Bfs.path_to ~parents:(Bfs.tree ~alive path5 0) 4))

let test_ball () =
  let b = Bfs.ball (Gview.Csr mesh4) 5 1 in
  check_int "radius-1 ball in mesh" 5 (Bitset.cardinal b);
  let b0 = Bfs.ball (Gview.Csr mesh4) 5 0 in
  check_bool "radius 0" true (Bitset.to_list b0 = [ 5 ]);
  let ball_all = Bfs.ball (Gview.Csr mesh4) 5 10 in
  check_int "big radius covers all" 16 (Bitset.cardinal ball_all)

let test_ball_of_size () =
  let b = Bfs.ball_of_size (Gview.Csr mesh4) 0 7 in
  check_int "exact size when available" 7 (Bitset.cardinal b);
  check_bool "connected" true (Dfs.is_connected_subset (Gview.Csr mesh4) b);
  let alive = Bitset.of_list 5 [ 0; 1 ] in
  let b = Bfs.ball_of_size ~alive (Gview.Csr path5) 0 10 in
  check_int "bounded by component" 2 (Bitset.cardinal b)

let test_dfs_connected_subset () =
  check_bool "empty is connected" true (Dfs.is_connected_subset (Gview.Csr path5) (Bitset.create 5));
  check_bool "segment connected" true
    (Dfs.is_connected_subset (Gview.Csr path5) (Bitset.of_list 5 [ 1; 2; 3 ]));
  check_bool "gap disconnected" false
    (Dfs.is_connected_subset (Gview.Csr path5) (Bitset.of_list 5 [ 0; 2 ]))

let prop_bfs_distances_triangle_inequality =
  prop "BFS distance drops by exactly 1 along tree edges" ~count:100
    (Testutil.gen_connected_graph ~max_n:12 ())
    (fun g ->
      let d = Bfs.distances (Gview.Csr g) 0 in
      let parents = Bfs.tree g 0 in
      let ok = ref true in
      for v = 0 to Graph.num_nodes g - 1 do
        if v <> 0 then begin
          if d.(v) <> d.(parents.(v)) + 1 then ok := false
        end
      done;
      !ok)

let prop_reachable_equals_dfs =
  prop "BFS and DFS reachability agree" (Testutil.gen_any_graph ~max_n:12 ()) (fun g ->
      let d = Bfs.distances (Gview.Csr g) 0 in
      let bfs = Bitset.create (Graph.num_nodes g) in
      Array.iteri (fun v dv -> if dv >= 0 then Bitset.add bfs v) d;
      Bitset.equal bfs (Dfs.reachable (Gview.Csr g) 0))

(* ---- differential: ring-buffer BFS vs a Queue-based reference ----
   The production BFS uses a flat int-array ring buffer; this reference
   is the classic Stdlib.Queue formulation it replaced.  Identical
   neighbor iteration order means every observable (distances, parents,
   balls) must agree exactly. *)

module Ref_bfs = struct
  let is_alive alive v = match alive with None -> true | Some m -> Bitset.mem m v

  let distances ?alive g src =
    let n = Graph.num_nodes g in
    let dist = Array.make n (-1) in
    let q = Queue.create () in
    dist.(src) <- 0;
    Queue.push src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Graph.iter_neighbors g u (fun v ->
          if dist.(v) < 0 && is_alive alive v then begin
            dist.(v) <- dist.(u) + 1;
            Queue.push v q
          end)
    done;
    dist

  let tree ?alive g src =
    let n = Graph.num_nodes g in
    let parent = Array.make n (-1) in
    let q = Queue.create () in
    parent.(src) <- src;
    Queue.push src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Graph.iter_neighbors g u (fun v ->
          if parent.(v) < 0 && is_alive alive v then begin
            parent.(v) <- u;
            Queue.push v q
          end)
    done;
    parent

  let ball_of_size ?alive g src k =
    let n = Graph.num_nodes g in
    let seen = Array.make n false in
    let ball = Bitset.create n in
    let q = Queue.create () in
    seen.(src) <- true;
    Queue.push src q;
    let size = ref 0 in
    while !size < k && not (Queue.is_empty q) do
      let u = Queue.pop q in
      Bitset.add ball u;
      incr size;
      Graph.iter_neighbors g u (fun v ->
          if (not seen.(v)) && is_alive alive v then begin
            seen.(v) <- true;
            Queue.push v q
          end)
    done;
    ball
end

(* graph + alive mask (always containing the source) + source *)
let gen_graph_mask_src =
  let open QCheck2.Gen in
  Testutil.gen_connected_graph ~max_n:14 () >>= fun g ->
  let n = Graph.num_nodes g in
  int_range 0 ((1 lsl n) - 1) >>= fun mask ->
  int_range 0 (n - 1) >>= fun src ->
  let alive = Bitset.create n in
  for v = 0 to n - 1 do
    if (mask lsr v) land 1 = 1 then Bitset.add alive v
  done;
  Bitset.add alive src;
  return (g, alive, src)

let prop_ring_distances_match_queue =
  prop "ring-buffer distances equal Queue reference" ~count:300 gen_graph_mask_src
    (fun (g, alive, src) ->
      Bfs.distances ~alive (Gview.Csr g) src = Ref_bfs.distances ~alive g src
      && Bfs.distances (Gview.Csr g) src = Ref_bfs.distances g src)

let prop_ring_tree_matches_queue =
  prop "ring-buffer parents equal Queue reference" ~count:300 gen_graph_mask_src
    (fun (g, alive, src) ->
      Bfs.tree ~alive g src = Ref_bfs.tree ~alive g src
      && Bfs.tree g src = Ref_bfs.tree g src)

let prop_ring_ball_matches_queue =
  prop "ball_of_size equals Queue reference for every k" ~count:150 gen_graph_mask_src
    (fun (g, alive, src) ->
      let n = Graph.num_nodes g in
      let ok = ref true in
      for k = 0 to n + 1 do
        if not (Bitset.equal (Bfs.ball_of_size ~alive (Gview.Csr g) src k) (Ref_bfs.ball_of_size ~alive g src k))
        then ok := false
      done;
      !ok)

let prop_grow_ball_resume_equals_restart =
  prop "grow_ball through a size schedule equals restarting per size" ~count:150
    gen_graph_mask_src (fun (g, alive, src) ->
      let n = Graph.num_nodes g in
      let grower = Bfs.ball_grower ~alive (Gview.Csr g) src in
      let ok = ref true in
      let k = ref 1 in
      let prev = ref 0 in
      while !k <= 2 * n do
        let resumed = Bfs.grow_ball grower !k in
        if not (Bitset.equal resumed (Bfs.ball_of_size ~alive (Gview.Csr g) src !k)) then ok := false;
        if Bitset.cardinal resumed <> Bfs.ball_size grower then ok := false;
        if Bfs.ball_size grower < !prev then ok := false;
        prev := Bfs.ball_size grower;
        k := !k * 2
      done;
      !ok)

let test_ball_grower_exhaustion () =
  let t = Bfs.ball_grower (Gview.Csr path5) 0 in
  let b = Bfs.grow_ball t 3 in
  check_int "grew to 3" 3 (Bitset.cardinal b);
  let b = Bfs.grow_ball t 100 in
  check_int "capped at component" 5 (Bitset.cardinal b);
  check_int "ball_size tracks" 5 (Bfs.ball_size t);
  (* further growth is a no-op *)
  check_bool "idempotent once exhausted" true (Bitset.equal (Bfs.grow_ball t 100) b)

let () =
  Alcotest.run "traversal"
    [
      ( "bfs",
        [
          case "path distances" test_bfs_path;
          case "cycle distances" test_bfs_cycle;
          case "masked" test_bfs_masked;
          case "source checks" test_bfs_source_checks;
          case "multi-source" test_multi_source;
          case "reachable" test_reachable;
          case "tree and path_to" test_tree_and_path_to;
          case "ball" test_ball;
          case "ball_of_size" test_ball_of_size;
          case "ball grower exhaustion" test_ball_grower_exhaustion;
        ] );
      ( "dfs",
        [
          case "connected subset" test_dfs_connected_subset;
        ] );
      ("properties", [ prop_bfs_distances_triangle_inequality; prop_reachable_equals_dfs ]);
      ( "differential",
        [
          prop_ring_distances_match_queue;
          prop_ring_tree_matches_queue;
          prop_ring_ball_matches_queue;
          prop_grow_ball_resume_equals_restart;
        ] );
    ]
