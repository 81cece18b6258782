open Fn_graph

type t = {
  pairs : (int * int) array;
  routes : int list array;
  unroutable : int;
}

let shortest ?alive g pairs =
  let is_alive v = match alive with None -> true | Some m -> Bitset.mem m v in
  (* group pairs by source so each source costs one BFS *)
  let by_src = Hashtbl.create 64 in
  Array.iteri
    (fun i (s, _) ->
      let cur = try Hashtbl.find by_src s with Not_found -> [] in
      Hashtbl.replace by_src s (i :: cur))
    pairs;
  let routes = Array.make (Array.length pairs) [] in
  let unroutable = ref 0 in
  Hashtbl.iter
    (fun src indices ->
      if is_alive src then begin
        let parents = Bfs.tree ?alive g src in
        List.iter
          (fun i ->
            let _, dst = pairs.(i) in
            match Bfs.path_to ~parents dst with
            | path -> routes.(i) <- path
            | exception Not_found -> incr unroutable)
          indices
      end
      else unroutable := !unroutable + List.length indices)
    by_src;
  { pairs; routes; unroutable = !unroutable }

let routable_fraction t =
  let total = Array.length t.pairs in
  if total = 0 then 1.0 else float_of_int (total - t.unroutable) /. float_of_int total

let route_length route = max 0 (List.length route - 1)

let dilation t = Array.fold_left (fun acc r -> max acc (route_length r)) 0 t.routes

let edge_congestion t =
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun route ->
      let rec walk = function
        | a :: (b :: _ as rest) ->
          let key = if a < b then (a, b) else (b, a) in
          Hashtbl.replace tbl key (1 + try Hashtbl.find tbl key with Not_found -> 0);
          walk rest
        | _ -> ()
      in
      walk route)
    t.routes;
  Hashtbl.fold (fun _ c acc -> max acc c) tbl 0

let stretch ~reference t =
  if Array.length reference.pairs <> Array.length t.pairs then
    invalid_arg "Route.stretch: pair lists must match";
  let total = ref 0.0 and count = ref 0 in
  Array.iteri
    (fun i r ->
      let r0 = reference.routes.(i) in
      if r <> [] && r0 <> [] && route_length r0 > 0 then begin
        total := !total +. (float_of_int (route_length r) /. float_of_int (route_length r0));
        incr count
      end)
    t.routes;
  if !count = 0 then nan else !total /. float_of_int !count
