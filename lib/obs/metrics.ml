type counter = { c_value : int Atomic.t }

type gauge = { g_value : float Atomic.t }

type histogram = {
  bounds : float array;  (* inclusive upper bounds, strictly increasing *)
  bucket_counts : int array;  (* length = Array.length bounds + 1 (overflow) *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  h_lock : Mutex.t;
}

type entry = C of counter | G of gauge | H of histogram

type registry = { lock : Mutex.t; table : (string, entry) Hashtbl.t }

let create () = { lock = Mutex.create (); table = Hashtbl.create 32 }

let default = create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let counter ?(registry = default) name =
  with_lock registry.lock (fun () ->
      match Hashtbl.find_opt registry.table name with
      | Some (C c) -> c
      | Some _ -> invalid_arg (Printf.sprintf "Metrics.counter: %S is not a counter" name)
      | None ->
        let c = { c_value = Atomic.make 0 } in
        Hashtbl.add registry.table name (C c);
        c)

let incr c = ignore (Atomic.fetch_and_add c.c_value 1)

let add c n = ignore (Atomic.fetch_and_add c.c_value n)

let counter_value c = Atomic.get c.c_value

let gauge ?(registry = default) name =
  with_lock registry.lock (fun () ->
      match Hashtbl.find_opt registry.table name with
      | Some (G g) -> g
      | Some _ -> invalid_arg (Printf.sprintf "Metrics.gauge: %S is not a gauge" name)
      | None ->
        let g = { g_value = Atomic.make 0.0 } in
        Hashtbl.add registry.table name (G g);
        g)

let set g v = Atomic.set g.g_value v

let gauge_value g = Atomic.get g.g_value

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0; 100.0 |]

let histogram ?(registry = default) ?(buckets = default_buckets) name =
  if Array.length buckets = 0 then invalid_arg "Metrics.histogram: empty buckets";
  Array.iteri
    (fun i b -> if i > 0 && buckets.(i - 1) >= b then invalid_arg "Metrics.histogram: buckets must increase")
    buckets;
  with_lock registry.lock (fun () ->
      match Hashtbl.find_opt registry.table name with
      | Some (H h) -> h
      | Some _ -> invalid_arg (Printf.sprintf "Metrics.histogram: %S is not a histogram" name)
      | None ->
        let h =
          {
            bounds = Array.copy buckets;
            bucket_counts = Array.make (Array.length buckets + 1) 0;
            count = 0;
            sum = 0.0;
            min_v = infinity;
            max_v = neg_infinity;
            h_lock = Mutex.create ();
          }
        in
        Hashtbl.add registry.table name (H h);
        h)

let bucket_index h v =
  let n = Array.length h.bounds in
  let rec find i = if i >= n then n else if v <= h.bounds.(i) then i else find (i + 1) in
  find 0

let observe h v =
  with_lock h.h_lock (fun () ->
      h.bucket_counts.(bucket_index h v) <- h.bucket_counts.(bucket_index h v) + 1;
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v < h.min_v then h.min_v <- v;
      if v > h.max_v then h.max_v <- v)

let histogram_count h = with_lock h.h_lock (fun () -> h.count)

let histogram_sum h = with_lock h.h_lock (fun () -> h.sum)

let histogram_mean h =
  with_lock h.h_lock (fun () ->
      if h.count = 0 then 0.0 else h.sum /. float_of_int h.count)

let histogram_min h = with_lock h.h_lock (fun () -> if h.count = 0 then 0.0 else h.min_v)

let histogram_max h = with_lock h.h_lock (fun () -> if h.count = 0 then 0.0 else h.max_v)

let sorted_entries reg =
  with_lock reg.lock (fun () ->
      Hashtbl.fold (fun name e acc -> (name, e) :: acc) reg.table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let report_text ?(registry = default) () =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, e) ->
      match e with
      | C c -> Buffer.add_string buf (Printf.sprintf "counter   %-32s %d\n" name (counter_value c))
      | G g ->
        Buffer.add_string buf (Printf.sprintf "gauge     %-32s %g\n" name (gauge_value g))
      | H h ->
        Buffer.add_string buf
          (Printf.sprintf "histogram %-32s count=%d sum=%g min=%g mean=%g max=%g\n" name
             (histogram_count h) (histogram_sum h) (histogram_min h) (histogram_mean h)
             (histogram_max h)))
    (sorted_entries registry);
  Buffer.contents buf
