let geometric rng p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Dist.geometric: need 0 < p <= 1";
  if p = 1.0 then 0
  else
    let u = Rng.unit_float rng in
    (* inversion: floor(log(1-u) / log(1-p)) *)
    int_of_float (Float.log1p (-.u) /. Float.log1p (-.p))

let exponential rng lambda =
  if not (lambda > 0.0) then invalid_arg "Dist.exponential: need lambda > 0";
  -.Float.log1p (-.Rng.unit_float rng) /. lambda

let normal rng mu sigma =
  let rec polar () =
    let u = (2.0 *. Rng.unit_float rng) -. 1.0 in
    let v = (2.0 *. Rng.unit_float rng) -. 1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || s = 0.0 then polar ()
    else u *. sqrt (-2.0 *. log s /. s)
  in
  mu +. (sigma *. polar ())

let binomial_direct rng n p =
  (* geometric skipping: expected O(np + 1) draws *)
  let count = ref 0 in
  let pos = ref (-1) in
  let continue = ref true in
  while !continue do
    let skip = geometric rng p in
    pos := !pos + skip + 1;
    if !pos < n then incr count else continue := false
  done;
  !count

let rec binomial rng n p =
  if n < 0 then invalid_arg "Dist.binomial: need n >= 0";
  if p <= 0.0 || n = 0 then 0
  else if p >= 1.0 then n
  else if p > 0.5 then n - binomial rng n (1.0 -. p)
  else if float_of_int n *. p <= 64.0 then binomial_direct rng n p
  else begin
    (* normal approximation with clamping; accurate enough for the
       large-np regime used by percolation sweeps *)
    let np = float_of_int n *. p in
    let sd = sqrt (np *. (1.0 -. p)) in
    let v = int_of_float (Float.round (normal rng np sd)) in
    max 0 (min n v)
  end
