type t = { n : int; mean : float; std : float; sem : float; min : float; max : float }

let mean xs =
  if Array.length xs = 0 then invalid_arg "Summary.mean: empty sample";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let std xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let of_array xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.of_array: empty sample";
  let m = mean xs in
  let s = std xs in
  {
    n;
    mean = m;
    std = s;
    sem = s /. sqrt (float_of_int n);
    min = Array.fold_left min xs.(0) xs;
    max = Array.fold_left max xs.(0) xs;
  }

let of_list xs = of_array (Array.of_list xs)

let quantile xs q =
  if Array.length xs = 0 then invalid_arg "Summary.quantile: empty sample";
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Summary.quantile: q out of [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let ci95 t = (t.mean -. (1.96 *. t.sem), t.mean +. (1.96 *. t.sem))

let pp fmt t =
  Format.fprintf fmt "n=%d mean=%.4g std=%.4g range=[%.4g, %.4g]" t.n t.mean t.std t.min
    t.max
