open Fn_graph

let graph d =
  if d < 0 || d > 25 then invalid_arg "Hypercube.graph: need 0 <= d <= 25";
  let n = 1 lsl d in
  let b = Builder.create n in
  for v = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let w = v lxor (1 lsl bit) in
      if v < w then Builder.add_edge b v w
    done
  done;
  Builder.to_graph b
