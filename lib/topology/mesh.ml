open Fn_graph

type geometry = { dims : int array; strides : int array; size : int }

let geometry dims =
  if Array.length dims = 0 then invalid_arg "Mesh.geometry: zero dimensions";
  Array.iter (fun s -> if s < 1 then invalid_arg "Mesh.geometry: side < 1") dims;
  let d = Array.length dims in
  let strides = Array.make d 1 in
  for i = d - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * dims.(i + 1)
  done;
  let size = Array.fold_left ( * ) 1 dims in
  { dims; strides; size }

let encode geo coords =
  if Array.length coords <> Array.length geo.dims then
    invalid_arg "Mesh.encode: dimension mismatch";
  let id = ref 0 in
  Array.iteri
    (fun i c ->
      if c < 0 || c >= geo.dims.(i) then invalid_arg "Mesh.encode: coordinate out of range";
      id := !id + (c * geo.strides.(i)))
    coords;
  !id

let decode geo id =
  if id < 0 || id >= geo.size then invalid_arg "Mesh.decode: id out of range";
  Array.mapi (fun i _ -> id / geo.strides.(i) mod geo.dims.(i)) geo.dims

let graph dims =
  let geo = geometry dims in
  let d = Array.length dims in
  let b = Builder.create geo.size in
  for v = 0 to geo.size - 1 do
    let coords = decode geo v in
    for i = 0 to d - 1 do
      if coords.(i) + 1 < dims.(i) then Builder.add_edge b v (v + geo.strides.(i))
    done
  done;
  (Builder.to_graph b, geo)

let cube ~d ~side = graph (Array.make d side)

let virtual_neighbors geo v =
  let d = Array.length geo.dims in
  let coords = decode geo v in
  let out = ref [] in
  (* single-dimension steps *)
  for i = 0 to d - 1 do
    for s = -1 to 1 do
      if s <> 0 then begin
        let c = coords.(i) + s in
        if c >= 0 && c < geo.dims.(i) then out := (v + (s * geo.strides.(i))) :: !out
      end
    done
  done;
  (* two-dimension diagonal steps *)
  for i = 0 to d - 1 do
    for j = i + 1 to d - 1 do
      for si = -1 to 1 do
        for sj = -1 to 1 do
          if si <> 0 && sj <> 0 then begin
            let ci = coords.(i) + si and cj = coords.(j) + sj in
            if ci >= 0 && ci < geo.dims.(i) && cj >= 0 && cj < geo.dims.(j) then
              out := (v + (si * geo.strides.(i)) + (sj * geo.strides.(j))) :: !out
          end
        done
      done
    done
  done;
  !out
