open Fn_graph
open Faultnet
open Testutil

let mesh6, _ = Fn_topology.Mesh.cube ~d:2 ~side:6

let test_identity_embedding () =
  let kept = Bitset.create_full 36 in
  let emb = Embedding.self_embed mesh6 ~kept in
  check_int "load 1" 1 emb.Embedding.load;
  (* each edge maps to itself: a path of one edge, used once *)
  check_int "dilation 1" 1 emb.Embedding.dilation;
  check_int "congestion 1" 1 emb.Embedding.congestion;
  check_int "all mapped" 0 emb.Embedding.unmapped;
  check_int "slowdown 3" 3 (Embedding.slowdown_bound emb);
  Array.iteri (fun v img -> if img <> v then Alcotest.fail "identity map broken")
    emb.Embedding.node_map

let test_single_dead_node () =
  let kept = Bitset.complement (Bitset.of_list 36 [ 14 ]) in
  let emb = Embedding.self_embed mesh6 ~kept in
  check_int "no unmapped" 0 emb.Embedding.unmapped;
  check_int "no unrouted" 0 emb.Embedding.unrouted;
  (* the dead node maps to one of its alive neighbours *)
  let img = emb.Embedding.node_map.(14) in
  check_bool "neighbour image" true (Graph.has_edge mesh6 14 img);
  check_int "that image carries 2" 2 emb.Embedding.load;
  (* the dead node's edges re-route around it: short detours only *)
  check_bool "small dilation" true (emb.Embedding.dilation <= 4)

let test_path_survivor_end () =
  (* path of 6, only node 0 survives: everything maps there *)
  let p6 = Fn_topology.Basic.path 6 in
  let kept = Bitset.of_list 6 [ 0 ] in
  let emb = Embedding.self_embed p6 ~kept in
  check_int "load all" 6 emb.Embedding.load;
  check_int "dilation 0 (single survivor)" 0 emb.Embedding.dilation;
  check_int "unmapped" 0 emb.Embedding.unmapped

let test_disconnected_survivor_routes () =
  (* two survivors at the ends of a path: the middle edges must embed
     into kept-only paths, which do not exist -> unrouted *)
  let p6 = Fn_topology.Basic.path 6 in
  let kept = Bitset.of_list 6 [ 0; 5 ] in
  let emb = Embedding.self_embed p6 ~kept in
  check_bool "some edges unrouted" true (emb.Embedding.unrouted > 0)

let test_empty_survivor_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Embedding.self_embed: empty survivor")
    (fun () -> ignore (Embedding.self_embed mesh6 ~kept:(Bitset.create 36)))

let test_images_are_kept () =
  let rng = Fn_prng.Rng.create 4 in
  let faults = Fn_faults.Random_faults.nodes_iid rng mesh6 0.2 in
  let kept = Components.largest_members ~alive:faults.Fn_faults.Fault_set.alive (Gview.Csr mesh6) in
  if Bitset.cardinal kept > 0 then begin
    let emb = Embedding.self_embed mesh6 ~kept in
    Array.iter
      (fun img -> if img >= 0 && not (Bitset.mem kept img) then Alcotest.fail "image not kept")
      emb.Embedding.node_map
  end

let prop_embedding_sound =
  prop "embedding invariants on random graphs + survivors" ~count:50
    (Testutil.gen_graph_and_subset ~max_n:10 ())
    (fun (g, kept) ->
      if Bitset.is_empty kept then true
      else begin
        let emb = Embedding.self_embed g ~kept in
        let n = Graph.num_nodes g in
        (* images alive, load consistent, unmapped counted *)
        let load_check = Hashtbl.create 16 in
        let unmapped = ref 0 in
        Array.iter
          (fun img ->
            if img < 0 then incr unmapped
            else begin
              if not (Bitset.mem kept img) then raise Exit;
              Hashtbl.replace load_check img
                (1 + try Hashtbl.find load_check img with Not_found -> 0)
            end)
          emb.Embedding.node_map;
        let max_load = Hashtbl.fold (fun _ c acc -> max acc c) load_check 0 in
        !unmapped = emb.Embedding.unmapped
        && max_load = emb.Embedding.load
        && emb.Embedding.dilation >= 0
        && Array.length emb.Embedding.node_map = n
      end)

let () =
  Alcotest.run "embedding"
    [
      ( "unit",
        [
          case "identity" test_identity_embedding;
          case "single dead node" test_single_dead_node;
          case "single survivor" test_path_survivor_end;
          case "disconnected survivor" test_disconnected_survivor_routes;
          case "empty rejected" test_empty_survivor_rejected;
          case "images kept" test_images_are_kept;
        ] );
      ("properties", [ prop_embedding_sound ]);
    ]
