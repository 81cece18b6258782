
type mode = Site | Bond

type result = { p_star : float; level : float; runs : int }

let curves ?(obs = Fn_obs.Sink.null) ?domains ~rng ~runs mode view =
  let make = match mode with Site -> Newman_ziff.site_run | Bond -> Newman_ziff.bond_run in
  Fn_parallel.Par.trials ~obs ?domains ~rng runs (fun r -> make ~obs r view)

let mean_gamma cs p =
  let total = Array.fold_left (fun acc c -> acc +. Newman_ziff.gamma_at c p) 0.0 cs in
  total /. float_of_int (Array.length cs)

let estimate ?(obs = Fn_obs.Sink.null) ?domains ?(runs = 32) ?(level = 0.4)
    ?(tolerance = 1e-3) ~rng mode view =
  if runs < 1 then invalid_arg "Threshold.estimate: need runs >= 1";
  let on = Fn_obs.Sink.enabled obs in
  let sp =
    if on then
      Fn_obs.Span.enter obs "percolation.threshold"
        ~fields:
          [
            ("mode", Fn_obs.Sink.Str (match mode with Site -> "site" | Bond -> "bond"));
            ("runs", Fn_obs.Sink.Int runs);
            ("level", Fn_obs.Sink.Float level);
          ]
    else Fn_obs.Span.null
  in
  let cs = curves ~obs ?domains ~rng ~runs mode view in
  let lo = ref 0.0 and hi = ref 1.0 in
  (* γ is monotone in p on a fixed curve set, so bisection is sound *)
  while !hi -. !lo > tolerance do
    let mid = (!lo +. !hi) /. 2.0 in
    if mean_gamma cs mid >= level then hi := mid else lo := mid
  done;
  let p_star = (!lo +. !hi) /. 2.0 in
  if on then Fn_obs.Span.exit sp ~fields:[ ("p_star", Fn_obs.Sink.Float p_star) ];
  { p_star; level; runs }

let gamma_curve ?obs ?domains ?(runs = 32) ~rng mode view ps =
  let cs = curves ?obs ?domains ~rng ~runs mode view in
  List.map
    (fun p ->
      let values = Array.map (fun c -> Newman_ziff.gamma_at c p) cs in
      let n = float_of_int runs in
      let mean = Array.fold_left ( +. ) 0.0 values /. n in
      let var =
        if runs < 2 then 0.0
        else
          Array.fold_left (fun acc v -> acc +. ((v -. mean) *. (v -. mean))) 0.0 values
          /. (n -. 1.0)
      in
      (p, mean, sqrt var))
    ps
