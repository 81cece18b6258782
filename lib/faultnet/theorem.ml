let thm21_max_faults ~alpha ~n ~k =
  if not (alpha > 0.0 && k >= 2.0) then invalid_arg "thm21_max_faults: need alpha > 0, k >= 2";
  int_of_float (floor (alpha *. float_of_int n /. (4.0 *. k)))

let thm21_min_kept ~alpha ~n ~k ~f =
  float_of_int n -. (k *. float_of_int f /. alpha)

let thm21_expansion ~alpha ~k = (1.0 -. (1.0 /. k)) *. alpha

let thm21_epsilon ~k =
  if not (k >= 2.0) then invalid_arg "thm21_epsilon: need k >= 2";
  1.0 -. (1.0 /. k)

let thm23_component_bound ~delta ~k = (delta * k / 2) + 1

let thm31_fault_probability ~delta ~k =
  if delta < 2 || k < 1 then invalid_arg "thm31_fault_probability: bad parameters";
  4.0 *. log (float_of_int delta) /. float_of_int k

let thm34_max_fault_probability ~delta ~sigma =
  if delta < 1 || not (sigma >= 1.0) then invalid_arg "thm34_max_fault_probability: bad parameters";
  1.0 /. (2.0 *. Float.exp 1.0 *. Float.pow (float_of_int delta) (4.0 *. sigma))

let thm34_max_epsilon ~delta =
  if delta < 1 then invalid_arg "thm34_max_epsilon: bad delta";
  1.0 /. (2.0 *. float_of_int delta)

let thm34_guaranteed_size ~n = float_of_int n /. 2.0

let thm36_mesh_span = 2.0

let mesh_fault_budget ~d =
  if d < 1 then invalid_arg "mesh_fault_budget: need d >= 1";
  thm34_max_fault_probability ~delta:(2 * d) ~sigma:2.0
