let default_domains () =
  let n = Domain.recommended_domain_count () in
  max 1 (min 8 n)

let max_domains = 127

exception Job_failed of { index : int; exn : exn }

let () =
  Printexc.register_printer (function
    | Job_failed { index; exn } ->
      Some (Printf.sprintf "Par.Job_failed(job %d: %s)" index (Printexc.to_string exn))
    | _ -> None)

let wrap_failure ~index exn bt = Printexc.raise_with_backtrace (Job_failed { index; exn }) bt

let map ?(obs = Fn_obs.Sink.null) ?domains f a =
  let n = Array.length a in
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  let workers = min domains n in
  if workers <= 1 || n < 2 then
    Array.mapi
      (fun i x -> try f x with e -> wrap_failure ~index:i e (Printexc.get_raw_backtrace ()))
      a
  else begin
    let out = Array.make n None in
    let chunk = (n + workers - 1) / workers in
    let seconds = Array.make workers 0.0 in
    (* First failure per worker, as (job index, exn, backtrace): the
       joining domain re-raises the lowest-index one with its job
       index attached instead of a context-free exception. *)
    let failed = Array.make workers None in
    let run_chunk w () =
      let start_ns = if Fn_obs.Sink.enabled obs then Fn_obs.Clock.now_ns () else 0 in
      let lo = w * chunk in
      let hi = min n (lo + chunk) - 1 in
      let i = ref lo in
      (try
         while !i <= hi do
           out.(!i) <- Some (f a.(!i));
           incr i
         done
       with e -> failed.(w) <- Some (!i, e, Printexc.get_raw_backtrace ()));
      if Fn_obs.Sink.enabled obs then begin
        let dt = Fn_obs.Clock.elapsed_s ~since_ns:start_ns in
        seconds.(w) <- dt;
        Fn_obs.Span.instant obs "par.domain"
          ~fields:
            [
              ("domain", Fn_obs.Sink.Int w);
              ("lo", Fn_obs.Sink.Int lo);
              ("hi", Fn_obs.Sink.Int hi);
              ("seconds", Fn_obs.Sink.Float dt);
            ]
      end
    in
    let handles = Array.init workers (fun w -> Domain.spawn (run_chunk w)) in
    Array.iter Domain.join handles;
    let first_failure =
      Array.fold_left
        (fun acc cur ->
          match (acc, cur) with
          | Some (i, _, _), Some (j, _, _) -> if j < i then cur else acc
          | None, _ -> cur
          | _, None -> acc)
        None failed
    in
    (match first_failure with
    | Some (index, exn, bt) -> wrap_failure ~index exn bt
    | None -> ());
    if Fn_obs.Sink.enabled obs then begin
      let slowest = Array.fold_left max 0.0 seconds in
      let mean = Array.fold_left ( +. ) 0.0 seconds /. float_of_int workers in
      Fn_obs.Metrics.set (Fn_obs.Metrics.gauge "par.domains") (float_of_int workers);
      Fn_obs.Metrics.set (Fn_obs.Metrics.gauge "par.max_seconds") slowest;
      Fn_obs.Metrics.set
        (Fn_obs.Metrics.gauge "par.imbalance")
        (if mean > 0.0 then slowest /. mean else 1.0)
    end;
    Array.map
      (function Some v -> v | None -> assert false)
      out
  end

module Pool = struct
  (* Long-lived worker domains for iterative kernels (the spectral
     matvec runs the same parallel-for a thousand times): spawning a
     domain per Par.map call would dominate the loop body, so a pool
     spawns once and republishes work through a mutex and conditions.

     Protocol: the caller stores the job in [job], resets [pending]
     to the worker count and bumps [epoch] under the mutex; each
     worker blocks on [wake] until the epoch moves, runs the job with
     its worker index and decrements [pending], signalling [drained]
     at zero.  The caller participates as worker 0 and blocks on
     [drained].  Workers block rather than spin so an oversubscribed
     machine (domains > cores — in the extreme, a 1-core box) is not
     slowed by idle workers burning their timeslices. *)
  type t = {
    spawned : int;
    mutex : Mutex.t;
    wake : Condition.t;
    drained : Condition.t;
    mutable job : int -> unit;
    mutable epoch : int;
    mutable pending : int;
    mutable stop : bool;
    failures : exn option array;
    mutable handles : unit Domain.t array;
  }

  let noop (_ : int) = ()

  let worker t w =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock t.mutex;
      while t.epoch = !seen && not t.stop do
        Condition.wait t.wake t.mutex
      done;
      if t.stop then begin
        Mutex.unlock t.mutex;
        running := false
      end
      else begin
        seen := t.epoch;
        let job = t.job in
        Mutex.unlock t.mutex;
        (try job w with e -> t.failures.(w - 1) <- Some e);
        Mutex.lock t.mutex;
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.signal t.drained;
        Mutex.unlock t.mutex
      end
    done

  let create ?domains () =
    let size = match domains with Some d -> max 1 d | None -> default_domains () in
    let t =
      {
        spawned = size - 1;
        mutex = Mutex.create ();
        wake = Condition.create ();
        drained = Condition.create ();
        job = noop;
        epoch = 0;
        pending = 0;
        stop = false;
        failures = Array.make (max 1 (size - 1)) None;
        handles = [||];
      }
    in
    t.handles <- Array.init (size - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
    t

  let size t = t.spawned + 1

  let run t f =
    if t.spawned = 0 || t.stop then f 0
    else begin
      Array.fill t.failures 0 t.spawned None;
      Mutex.lock t.mutex;
      t.pending <- t.spawned;
      t.job <- f;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.wake;
      Mutex.unlock t.mutex;
      let mine =
        try
          f 0;
          None
        with e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.mutex;
      while t.pending > 0 do
        Condition.wait t.drained t.mutex
      done;
      t.job <- noop;
      Mutex.unlock t.mutex;
      match mine with
      | Some (e, bt) -> Printexc.raise_with_backtrace (Job_failed { index = 0; exn = e }) bt
      | None ->
        let raised = ref None in
        for w = t.spawned - 1 downto 0 do
          match t.failures.(w) with
          | Some e -> raised := Some (w + 1, e)
          | None -> ()
        done;
        (match !raised with
        | Some (index, exn) -> raise (Job_failed { index; exn })
        | None -> ())
    end

  let shutdown t =
    Mutex.lock t.mutex;
    let first = not t.stop in
    t.stop <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    if first then begin
      Array.iter Domain.join t.handles;
      t.handles <- [||]
    end

  let with_pool ?domains f =
    let t = create ?domains () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end

let trials ?obs ?domains ~rng n job =
  let rngs = Fn_prng.Rng.split_n rng n in
  map ?obs ?domains job rngs
