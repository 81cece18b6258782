open Fn_graph
open Fn_prng

type zone = { lo : float array; hi : float array }

type t = { d : int; mutable zones : zone array; mutable count : int }

let create d =
  if d < 1 || d > 10 then invalid_arg "Can.create: need 1 <= d <= 10";
  let whole = { lo = Array.make d 0.0; hi = Array.make d 1.0 } in
  { d; zones = Array.make 4 whole; count = 1 }

let zone t i =
  if i < 0 || i >= t.count then invalid_arg "Can.zone: bad node id";
  t.zones.(i)

let owner t point =
  let inside z =
    let ok = ref true in
    for i = 0 to t.d - 1 do
      if not (point.(i) >= z.lo.(i) && point.(i) < z.hi.(i)) then ok := false
    done;
    !ok
  in
  let rec scan i = if inside t.zones.(i) then i else scan (i + 1) in
  scan 0

let widest_dim z =
  let d = Array.length z.lo in
  let best = ref 0 in
  for i = 1 to d - 1 do
    if z.hi.(i) -. z.lo.(i) > z.hi.(!best) -. z.lo.(!best) then best := i
  done;
  !best

let join rng t =
  let point = Array.init t.d (fun _ -> Rng.unit_float rng) in
  let owner_id = owner t point in
  let z = t.zones.(owner_id) in
  let dim = widest_dim z in
  let mid = (z.lo.(dim) +. z.hi.(dim)) /. 2.0 in
  let lower = { lo = Array.copy z.lo; hi = Array.copy z.hi } in
  let upper = { lo = Array.copy z.lo; hi = Array.copy z.hi } in
  lower.hi.(dim) <- mid;
  upper.lo.(dim) <- mid;
  (* the owner keeps the half containing its notional position; we
     give it the lower half deterministically, which is equivalent up
     to relabeling *)
  if t.count = Array.length t.zones then begin
    let bigger = Array.make (2 * t.count) t.zones.(0) in
    Array.blit t.zones 0 bigger 0 t.count;
    t.zones <- bigger
  end;
  t.zones.(owner_id) <- lower;
  t.zones.(t.count) <- upper;
  t.count <- t.count + 1;
  t.count - 1

let build rng ~d ~n =
  if n < 1 then invalid_arg "Can.build: need n >= 1";
  let t = create d in
  for _ = 2 to n do
    ignore (join rng t)
  done;
  t

(* intervals [alo,ahi) and [blo,bhi) overlap with positive length *)
let overlaps alo ahi blo bhi = alo < bhi && blo < ahi

(* abut on the torus: one's end is the other's start, possibly wrapping *)
let abuts alo ahi blo bhi =
  ahi = blo || bhi = alo || (ahi = 1.0 && blo = 0.0) || (bhi = 1.0 && alo = 0.0)

let are_neighbors t a b =
  if a = b then false
  else begin
    let za = zone t a and zb = zone t b in
    let abut_dims = ref 0 and overlap_dims = ref 0 in
    for i = 0 to t.d - 1 do
      if overlaps za.lo.(i) za.hi.(i) zb.lo.(i) zb.hi.(i) then incr overlap_dims
      else if abuts za.lo.(i) za.hi.(i) zb.lo.(i) zb.hi.(i) then incr abut_dims
    done;
    (* exactly one abutting dimension, overlap in all others.  In
       dimension 1 a full-width zone wraps onto itself; the a=b guard
       already excludes that. *)
    !abut_dims >= 1 && !abut_dims + !overlap_dims = t.d
  end

let graph t =
  let b = Builder.create t.count in
  for u = 0 to t.count - 1 do
    for v = u + 1 to t.count - 1 do
      if are_neighbors t u v then Builder.add_edge b u v
    done
  done;
  Builder.to_graph b

let zone_volume t i =
  let z = zone t i in
  let vol = ref 1.0 in
  for k = 0 to t.d - 1 do
    vol := !vol *. (z.hi.(k) -. z.lo.(k))
  done;
  !vol

let balance t =
  let vmin = ref infinity and vmax = ref 0.0 in
  for i = 0 to t.count - 1 do
    let v = zone_volume t i in
    if v < !vmin then vmin := v;
    if v > !vmax then vmax := v
  done;
  if t.count = 0 then 1.0 else !vmax /. !vmin
