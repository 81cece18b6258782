type t = {
  n : int;
  mutable us : int array;
  mutable vs : int array;
  mutable len : int;
}

let create n =
  if n < 0 then invalid_arg "Builder.create: negative node count";
  { n; us = Array.make 16 0; vs = Array.make 16 0; len = 0 }

let grow t =
  let cap = Array.length t.us in
  let us = Array.make (2 * cap) 0 and vs = Array.make (2 * cap) 0 in
  Array.blit t.us 0 us 0 t.len;
  Array.blit t.vs 0 vs 0 t.len;
  t.us <- us;
  t.vs <- vs

let add_edge t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg "Builder.add_edge: endpoint out of range";
  if u = v then invalid_arg "Builder.add_edge: self-loop";
  if t.len = Array.length t.us then grow t;
  t.us.(t.len) <- u;
  t.vs.(t.len) <- v;
  t.len <- t.len + 1

(* The builder already holds flat endpoint arrays, so it feeds the
   canonical construction path directly — no intermediate tuple
   array. *)
let to_graph t = Graph.of_endpoint_arrays t.n ~us:t.us ~vs:t.vs ~len:t.len
