let complete_node_exact n =
  if n < 2 then invalid_arg "Analytic.complete_node_exact: need n >= 2";
  let k = n / 2 in
  float_of_int (n - k) /. float_of_int k

let cycle_node_exact n =
  if n < 3 then invalid_arg "Analytic.cycle_node_exact: need n >= 3";
  2.0 /. float_of_int (n / 2)

let path_node_exact n =
  if n < 2 then invalid_arg "Analytic.path_node_exact: need n >= 2";
  1.0 /. float_of_int (n / 2)

let hypercube_edge_exact d =
  if d < 1 then invalid_arg "Analytic.hypercube_edge_exact: need d >= 1";
  1.0
