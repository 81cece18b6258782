type options = {
  warmup_ns : int;
  target_batch_ns : int;
  min_runs : int;
  max_runs : int;
  budget_ns : int;
}

let default =
  {
    warmup_ns = 50_000_000;
    target_batch_ns = 10_000_000;
    min_runs = 5;
    max_runs = 40;
    budget_ns = 1_000_000_000;
  }

let quick =
  {
    warmup_ns = 10_000_000;
    target_batch_ns = 2_000_000;
    min_runs = 3;
    max_runs = 15;
    budget_ns = 200_000_000;
  }

type samples = {
  runs : int;
  batch : int;
  times_ns : float array;
  bytes_per_run : float;
}

let time_batch f batch =
  let t0 = Fn_obs.Clock.now_ns () in
  for _ = 1 to batch do
    f ()
  done;
  Fn_obs.Clock.now_ns () - t0

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let run opts f =
  (* First call doubles as calibration: even in smoke mode the kernel
     executes exactly once and any exception propagates to the caller. *)
  let est0 = max 1 (time_batch f 1) in
  let est = ref est0 in
  (* Warmup: repeat until the warmup budget is consumed, re-estimating
     the per-run cost as caches and the JIT-less runtime settle. *)
  let warmed = ref est0 in
  while !warmed < opts.warmup_ns do
    let t = max 1 (time_batch f 1) in
    warmed := !warmed + t;
    est := (!est + t) / 2
  done;
  let batch =
    if opts.target_batch_ns <= 0 then 1 else clamp 1 1_000_000 (opts.target_batch_ns / !est)
  in
  let batch_est = max 1 (batch * !est) in
  let runs = clamp opts.min_runs opts.max_runs (opts.budget_ns / batch_est) in
  if opts.max_runs <= 1 then
    (* smoke: the calibration run was the run *)
    { runs = 1; batch = 1; times_ns = [| float_of_int est0 |]; bytes_per_run = 0.0 }
  else begin
    let times = Array.make runs 0.0 in
    let bytes0 = Gc.allocated_bytes () in
    for i = 0 to runs - 1 do
      times.(i) <- float_of_int (time_batch f batch) /. float_of_int batch
    done;
    let bytes1 = Gc.allocated_bytes () in
    {
      runs;
      batch;
      times_ns = times;
      bytes_per_run = (bytes1 -. bytes0) /. float_of_int (runs * batch);
    }
  end
