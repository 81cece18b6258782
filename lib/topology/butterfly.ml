open Fn_graph

let node ~k ~level ~row = (level * (1 lsl k)) + row

let unwrapped k =
  if k < 1 || k > 20 then invalid_arg "Butterfly.unwrapped: need 1 <= k <= 20";
  let rows = 1 lsl k in
  let n = (k + 1) * rows in
  let b = Builder.create n in
  for level = 0 to k - 1 do
    for row = 0 to rows - 1 do
      let v = node ~k ~level ~row in
      Builder.add_edge b v (node ~k ~level:(level + 1) ~row);
      Builder.add_edge b v (node ~k ~level:(level + 1) ~row:(row lxor (1 lsl level)))
    done
  done;
  Builder.to_graph b
