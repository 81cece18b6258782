type kernel = {
  name : string;
  suite : string;
  items : int;
  prepare : unit -> unit;
  run : unit -> unit;
}

let kernel ?(items = 1) ?(prepare = fun () -> ()) ~suite name f =
  if items < 1 then invalid_arg "Suite.kernel: items must be >= 1";
  { name; suite; items; prepare; run = (fun () -> ignore (Sys.opaque_identity (f ()))) }

let suites kernels =
  List.fold_left
    (fun acc k -> if List.mem k.suite acc then acc else k.suite :: acc)
    [] kernels
  |> List.rev

type stats = {
  runs : int;
  batch : int;
  median_ns : float;
  mad_ns : float;
  trimmed_mean_ns : float;
  ci_low_ns : float;
  ci_high_ns : float;
  bytes_per_run : float;
  items_per_sec : float;
}

type result = { name : string; items : int; stats : stats }

(* Stable 64-bit name hash (FNV-1a) so the bootstrap stream of one
   kernel never depends on how many kernels ran before it. *)
let name_seed seed name =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    name;
  Int64.logxor !h (Int64.of_int seed)

let run_kernel ?(seed = 42) opts k =
  k.prepare ();
  let s = Measure.run opts k.run in
  let rng = Fn_prng.Rng.of_int64 (name_seed seed k.name) in
  let ci_low, ci_high = Stats.bootstrap_ci ~rng s.Measure.times_ns in
  let median = Stats.median s.Measure.times_ns in
  {
    name = k.name;
    items = k.items;
    stats =
      {
        runs = s.Measure.runs;
        batch = s.Measure.batch;
        median_ns = median;
        mad_ns = Stats.mad s.Measure.times_ns;
        trimmed_mean_ns = Stats.trimmed_mean s.Measure.times_ns;
        ci_low_ns = ci_low;
        ci_high_ns = ci_high;
        bytes_per_run = s.Measure.bytes_per_run;
        items_per_sec = (if median > 0.0 then float_of_int k.items *. 1e9 /. median else 0.0);
      };
  }

let run ?progress ?(filter = fun _ -> true) ?seed opts kernels =
  let selected = List.filter (fun (k : kernel) -> filter k.name) kernels in
  let results =
    List.map
      (fun (k : kernel) ->
        (match progress with Some p -> p k | None -> ());
        (k.suite, run_kernel ?seed opts k))
      selected
  in
  List.filter_map
    (fun suite ->
      match List.filter_map (fun (s, r) -> if s = suite then Some r else None) results with
      | [] -> None
      | rs -> Some (suite, rs))
    (suites selected)
