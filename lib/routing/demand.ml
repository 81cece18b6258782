open Fn_graph
open Fn_prng

let alive_nodes ?alive g =
  match alive with
  | Some m -> Bitset.to_array m
  | None -> Array.init (Graph.num_nodes g) Fun.id

let permutation rng ?alive g =
  let nodes = alive_nodes ?alive g in
  let n = Array.length nodes in
  if n < 2 then [||]
  else begin
    let perm = Rng.permutation rng n in
    (* rotate fixed points away: a derangement is not required, but
       self-pairs carry no traffic, so swap them with a neighbour *)
    for i = 0 to n - 1 do
      if perm.(i) = i then begin
        let j = (i + 1) mod n in
        let tmp = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- tmp
      end
    done;
    Array.init n (fun i -> (nodes.(i), nodes.(perm.(i))))
    |> Array.to_list
    |> List.filter (fun (s, d) -> s <> d)
    |> Array.of_list
  end
