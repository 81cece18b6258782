open Fn_graph
open Fn_prng

let gnm rng n m =
  let max_m = n * (n - 1) / 2 in
  if m < 0 || m > max_m then invalid_arg "Random_graphs.gnm: m out of range";
  let seen = Hashtbl.create (2 * m) in
  let b = Builder.create n in
  let count = ref 0 in
  while !count < m do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let key = if u < v then (u, v) else (v, u) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        Builder.add_edge b u v;
        incr count
      end
    end
  done;
  Builder.to_graph b

(* Configuration model with edge-swap repair.  A raw stub pairing is
   simple only with probability ~ exp(-(d^2-1)/4), which is hopeless
   for d >= 6, so instead of rejecting the whole pairing we repair it:
   every conflicting pair (self-loop or duplicate) is double-edge
   swapped with a random partner pair when the swap removes the
   conflict without creating a new one.  This is the standard
   practical sampler; the distribution is asymptotically uniform. *)
let random_regular rng n d =
  if d < 0 || d >= n then invalid_arg "Random_graphs.random_regular: need 0 <= d < n";
  if n * d mod 2 = 1 then invalid_arg "Random_graphs.random_regular: n*d must be even";
  let half = n * d / 2 in
  let stubs = Array.make (n * d) 0 in
  for i = 0 to (n * d) - 1 do
    stubs.(i) <- i / d
  done;
  let us = Array.make (max half 1) 0 and vs = Array.make (max half 1) 0 in
  let counts = Hashtbl.create (2 * max half 1) in
  let key u v = if u < v then (u, v) else (v, u) in
  let count u v = try Hashtbl.find counts (key u v) with Not_found -> 0 in
  let incr_edge u v = Hashtbl.replace counts (key u v) (count u v + 1) in
  let decr_edge u v =
    let c = count u v in
    if c <= 1 then Hashtbl.remove counts (key u v) else Hashtbl.replace counts (key u v) (c - 1)
  in
  let is_bad i = us.(i) = vs.(i) || count us.(i) vs.(i) > 1 in
  let attempt () =
    Rng.shuffle rng stubs;
    Hashtbl.reset counts;
    for i = 0 to half - 1 do
      us.(i) <- stubs.(2 * i);
      vs.(i) <- stubs.((2 * i) + 1);
      incr_edge us.(i) vs.(i)
    done;
    let budget = ref (200 * (half + 1)) in
    let rec repair i =
      if i >= half then true
      else if not (is_bad i) then repair (i + 1)
      else if !budget <= 0 then false
      else begin
        budget := !budget - 1;
        let j = Rng.int rng half in
        if j = i then repair i
        else begin
          (* propose the double swap (u_i,v_i),(u_j,v_j) ->
             (u_i,v_j),(u_j,v_i) *)
          let a, b, c, d' = (us.(i), vs.(i), us.(j), vs.(j)) in
          let ok =
            a <> d' && c <> b
            && count a d' = 0
            && count c b = 0
            && (a <> c || b <> d')
          in
          if ok then begin
            decr_edge a b;
            decr_edge c d';
            vs.(i) <- d';
            vs.(j) <- b;
            incr_edge a d';
            incr_edge c b;
            repair i
          end
          else repair i
        end
      end
    in
    if repair 0 then begin
      let bld = Builder.create n in
      for i = 0 to half - 1 do
        Builder.add_edge bld us.(i) vs.(i)
      done;
      Some (Builder.to_graph bld)
    end
    else None
  in
  let rec go tries =
    if tries > 100 then failwith "Random_graphs.random_regular: repair failed"
    else match attempt () with Some g -> g | None -> go (tries + 1)
  in
  go 0

let connected_random_regular rng n d =
  let rec go tries =
    if tries > 1_000 then failwith "Random_graphs.connected_random_regular: cannot connect"
    else begin
      let g = random_regular rng n d in
      if Components.is_connected (Gview.Csr g) then g else go (tries + 1)
    end
  in
  go 0
