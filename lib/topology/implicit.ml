open Fn_graph

(* Every generator here mirrors a materializing constructor in this
   directory edge-for-edge (the property tests compare them through
   Gview.materialize and Graph.equal).  The closures only do
   coordinate / bit arithmetic on the node id — no per-call
   allocation — so a 10^7-node torus costs nothing until an algorithm
   actually walks it. *)

(* ---- mesh / torus --------------------------------------------------- *)

(* [dims] is copied: the geometry must not change under the closures. *)
let grid_geometry ~who dims =
  if Array.length dims = 0 then invalid_arg (who ^ ": zero dimensions");
  Array.iter (fun s -> if s < 1 then invalid_arg (who ^ ": side < 1")) dims;
  let dims = Array.copy dims in
  let d = Array.length dims in
  let strides = Array.make d 1 in
  for i = d - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * dims.(i + 1)
  done;
  let size = Array.fold_left ( * ) 1 dims in
  (dims, strides, size)

let mesh dims =
  let dims, strides, size = grid_geometry ~who:"Implicit.mesh" dims in
  let d = Array.length dims in
  let max_degree = Array.fold_left (fun acc s -> acc + min (s - 1) 2) 0 dims in
  let iter v f =
    for i = 0 to d - 1 do
      let s = strides.(i) and side = dims.(i) in
      let c = v / s mod side in
      if c > 0 then f (v - s);
      if c + 1 < side then f (v + s)
    done
  in
  let degree v =
    let deg = ref 0 in
    for i = 0 to d - 1 do
      let c = v / strides.(i) mod dims.(i) in
      if c > 0 then incr deg;
      if c + 1 < dims.(i) then incr deg
    done;
    !deg
  in
  let has_edge u v =
    let diff = abs (u - v) in
    u <> v
    && begin
         let ok = ref false in
         for i = 0 to d - 1 do
           if diff = strides.(i) then begin
             (* same stride-i row: the lower id must not sit on the
                upper face of dimension i *)
             let lo = min u v in
             if (lo / strides.(i) mod dims.(i)) + 1 < dims.(i) then ok := true
           end
         done;
         !ok
       end
  in
  Gview.implicit ~n:size ~max_degree ~degree ~has_edge iter

let torus dims =
  let dims, strides, size = grid_geometry ~who:"Implicit.torus" dims in
  let d = Array.length dims in
  (* per-dimension contribution: 2 distinct ring neighbors for sides
     >= 3, 1 for side 2 (both directions land on the same node), 0 for
     side 1 — exactly what the materializing Torus.graph dedupes to *)
  let per_dim s = if s >= 3 then 2 else s - 1 in
  let max_degree = Array.fold_left (fun acc s -> acc + per_dim s) 0 dims in
  let iter v f =
    for i = 0 to d - 1 do
      let s = strides.(i) and side = dims.(i) in
      if side >= 2 then begin
        let c = v / s mod side in
        let up = if c + 1 = side then v - (c * s) else v + s in
        let down = if c = 0 then v + ((side - 1) * s) else v - s in
        f up;
        if down <> up then f down
      end
    done
  in
  let degree _ = max_degree in
  Gview.implicit ~n:size ~max_degree ~degree iter

(* ---- hypercube ------------------------------------------------------ *)

let hypercube d =
  if d < 0 || d > 25 then invalid_arg "Implicit.hypercube: need 0 <= d <= 25";
  let n = 1 lsl d in
  let iter v f =
    for bit = 0 to d - 1 do
      f (v lxor (1 lsl bit))
    done
  in
  let has_edge u v =
    let x = u lxor v in
    x <> 0 && x land (x - 1) = 0
  in
  Gview.implicit ~n ~max_degree:d ~degree:(fun _ -> d) ~has_edge iter

(* ---- butterflies ---------------------------------------------------- *)

(* ---- de Bruijn ------------------------------------------------------ *)

(* ---- chain-replacement ---------------------------------------------- *)
