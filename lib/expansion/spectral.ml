open Fn_graph

type result = { lambda2 : float; fiedler : float array; iterations : int; converged : bool }

module Method = struct
  type t = Power | Lanczos

  let to_string = function Power -> "power" | Lanczos -> "lanczos"

  (* Size policy: below this node count the fused power iteration is
     the reference and the matvec is cheap enough that Krylov
     bookkeeping does not pay; above it Lanczos converges in an order
     of magnitude fewer operator applications on the collapsed-gap
     graphs Prune produces. *)
  let power_max_nodes = 50_000

  let select ~n_alive = if n_alive < power_max_nodes then Power else Lanczos
end

(* ---- Power: the historical fused iteration, kept bit-exact ---- *)

(* One step is three passes over n floats (four for the deflated
   second vector): the matvec, which also returns z·v1; the deflation
   and squared norm; and [Spectral_op.advance], which normalizes z into
   y, measures the L1 change and stages y as the next matvec's
   pre-scaled source.  Only the first step's matvec and the closing
   one that measures mu scale their source themselves.  [converged]
   says whether the stop was the L1 test rather than the [max_iter]
   budget. *)
let power_iteration op m ?(max_iter = 1000) ?(tol = 1e-9) ~deflate_against () =
  let n = op.Spectral_op.n in
  let basis = deflate_against in
  (* deterministic pseudo-random start; offset by the deflation depth
     so the second vector starts elsewhere *)
  let y = Spectral_op.cold_start op ~phase:(1 + List.length deflate_against) in
  Spectral_op.deflate op basis y;
  ignore (Spectral_op.normalize op y);
  let z = Array.make n 0.0 in
  (* The per-iteration [deflate] and squared norm, fused: [subtract c
     w rest] removes c w from z and, in the same pass, accumulates the
     next projection coefficient (against the head of [rest]) or,
     after the last basis vector, the squared norm.  Every reduction
     still runs in index order over the same operands, so the bits are
     those of the separate passes. *)
  let rec subtract c w rest =
    match rest with
    | next :: rest ->
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        let zi = z.(i) -. (c *. w.(i)) in
        z.(i) <- zi;
        acc := !acc +. (zi *. next.(i))
      done;
      subtract !acc next rest
    | [] ->
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        let zi = z.(i) -. (c *. w.(i)) in
        z.(i) <- zi;
        acc := !acc +. (zi *. zi)
      done;
      !acc
  in
  let v1 = op.Spectral_op.v1 in
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < max_iter do
    incr iterations;
    let c = Spectral_op.apply m ~staged:(!iterations > 1) y z in
    (* z is dead after this: the next [apply] overwrites it *)
    converged := Spectral_op.advance m z ~sq_norm:(subtract c v1 basis) y ~tol
  done;
  ignore (Spectral_op.apply m ~staged:false y z);
  let mu_final = Spectral_op.dot op y z in
  let lambda = 2.0 -. mu_final in
  let embedding = Spectral_op.embed op y in
  (max 0.0 lambda, y, embedding, !iterations, !converged)

(* ---- dense symmetric Jacobi eigensolver for the projected matrix ---- *)

(* Cyclic Jacobi on the (at most max_basis-dimensional) Rayleigh-Ritz
   matrix: a few hundred flops per sweep, quadratically convergent,
   and deterministic (fixed sweep order, no pivot search).  [a] is
   destroyed; eigenvector k lives in column k of the returned
   matrix. *)
let jacobi_eig a m =
  let v = Array.make_matrix m m 0.0 in
  for i = 0 to m - 1 do
    v.(i).(i) <- 1.0
  done;
  let frob2 = ref 0.0 in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      frob2 := !frob2 +. (a.(i).(j) *. a.(i).(j))
    done
  done;
  let off () =
    let s = ref 0.0 in
    for i = 0 to m - 1 do
      for j = i + 1 to m - 1 do
        s := !s +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    !s
  in
  let stop = 1e-28 *. max 1.0 !frob2 in
  let sweeps = ref 0 in
  while !sweeps < 50 && off () > stop do
    incr sweeps;
    for p = 0 to m - 2 do
      for q = p + 1 to m - 1 do
        let apq = a.(p).(q) in
        if abs_float apq > 0.0 then begin
          let tau = (a.(q).(q) -. a.(p).(p)) /. (2.0 *. apq) in
          let t =
            (if tau >= 0.0 then 1.0 else -1.0)
            /. (abs_float tau +. sqrt (1.0 +. (tau *. tau)))
          in
          let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
          let s = t *. c in
          for k = 0 to m - 1 do
            if k <> p && k <> q then begin
              let akp = a.(k).(p) and akq = a.(k).(q) in
              a.(k).(p) <- (c *. akp) -. (s *. akq);
              a.(p).(k) <- a.(k).(p);
              a.(k).(q) <- (s *. akp) +. (c *. akq);
              a.(q).(k) <- a.(k).(q)
            end
          done;
          let app = a.(p).(p) and aqq = a.(q).(q) in
          a.(p).(p) <- app -. (t *. apq);
          a.(q).(q) <- aqq +. (t *. apq);
          a.(p).(q) <- 0.0;
          a.(q).(p) <- 0.0;
          for k = 0 to m - 1 do
            let vkp = v.(k).(p) and vkq = v.(k).(q) in
            v.(k).(p) <- (c *. vkp) -. (s *. vkq);
            v.(k).(q) <- (s *. vkp) +. (c *. vkq)
          done
        end
      done
    done
  done;
  (Array.init m (fun i -> a.(i).(i)), v)

(* indices of the two largest eigenvalues, deterministic tiebreak *)
let top2_indices vals m =
  let idx = Array.init m Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare vals.(b) vals.(a) in
      if c <> 0 then c else Int.compare a b)
    idx;
  (idx.(0), if m >= 2 then Some idx.(1) else None)

(* ---- Lanczos with thick restarts and selective reorthogonalization ---- *)

type pair_solution = {
  theta1 : float;  (** top operator eigenvalue in the deflated space *)
  py1 : float array;  (** y-space Ritz vectors, normalized *)
  py2 : float array;
  applies : int;  (** operator applications (matvecs) consumed *)
  pair1_converged : bool;
      (** the last Ritz check had pair 1 within [tol], or the Krylov
          space was exhausted *)
}

let lanczos_max_basis = 16

let lanczos_keep = 6

let breakdown_tol = 1e-12

(* Plateau detection for the second Ritz pair.  theta1 always has the
   expander gap above theta2 and converges geometrically, but theta2
   often sits inside a near-degenerate bulk cluster (random-regular
   spectra pack Theta(n) eigenvalues into an O(1) interval), where no
   iterative method separates an individual eigenvector — the
   residual decays like 1/k instead of geometrically.  The power
   backend's L1-stagnation stop quietly accepts a cluster mix there;
   we do the same explicitly: once pair 1 is converged, pair 2 is
   accepted as soon as its residual fails to halve over a detection
   window.  Genuinely converging residuals halve every step or two,
   so the rule only fires in the cluster regime. *)
let lanczos_stall_window = 12

let lanczos_stall_factor = 0.5

(* Top-2 eigenpairs of the operator given by [apply] restricted to
   the complement of the trivial vector; [applies] in the result counts
   the calls made to [apply].  Bounded memory: the Krylov
   basis is capped at [lanczos_max_basis] vectors and thick-restarted
   keeping the best [lanczos_keep] Ritz vectors plus the residual
   direction.  Orthogonality is maintained selectively (see the pass
   in the loop): each step projects only against the trivial vector,
   the locked Ritz block and the two recurrence partners, with a
   DGKS-gated second pass — full-basis work happens only on the
   arrowhead column right after a restart, where the exact-arithmetic
   couplings are genuinely dense. *)
let lanczos_top2 op ~apply ~max_applies ~tol =
  let n = op.Spectral_op.n in
  let dim = max 1 (Spectral_op.alive_count op) in
  let max_basis = max 3 (min lanczos_max_basis dim) in
  let keep = max 2 (min lanczos_keep (max_basis - 2)) in
  let q = Array.make max_basis [||] in
  let tm = Array.make_matrix max_basis max_basis 0.0 in
  let phase = ref 1 in
  let zeros () = Array.make n 0.0 in
  let cold () =
    let y = Spectral_op.cold_start op ~phase:!phase in
    incr phase;
    Spectral_op.deflate op [] y;
    y
  in
  let y0 = cold () in
  if Spectral_op.normalize op y0 <= breakdown_tol then
    (* no alive mass at all: mirror the power iteration's degenerate
       output (lambda2 = 2, zero embeddings) *)
    { theta1 = 0.0; py1 = zeros (); py2 = zeros (); applies = 0; pair1_converged = true }
  else begin
    q.(0) <- y0;
    let m = ref 1 in
    let applies = ref 0 in
    (* a deterministic direction orthogonal to the current basis, for
       breakdown recovery; None when the space is exhausted *)
    let fresh_direction () =
      let rec try_phase attempts =
        if attempts = 0 then None
        else begin
          let y = cold () in
          for i = 0 to !m - 1 do
            let c = Spectral_op.dot op y q.(i) in
            for k = 0 to n - 1 do
              y.(k) <- y.(k) -. (c *. q.(i).(k))
            done
          done;
          if Spectral_op.normalize op y > 1e-8 then Some y else try_phase (attempts - 1)
        end
      in
      try_phase 8
    in
    (* latest Rayleigh-Ritz decomposition: (vals, vecs, basis size) *)
    let ritz = ref ([| 0.0 |], [| [| 1.0 |] |], 1) in
    let solve_ritz () =
      let mm = !m in
      let a = Array.make_matrix mm mm 0.0 in
      for i = 0 to mm - 1 do
        for j = 0 to mm - 1 do
          a.(i).(j) <- tm.(i).(j)
        done
      done;
      let vals, vecs = jacobi_eig a mm in
      ritz := (vals, vecs, mm)
    in
    (* Thick restart: compress the basis to the [keep] best Ritz
       vectors (plus the residual direction when there is one).  The
       projected matrix becomes diag(theta) for the kept block; the
       arrowhead couplings to the residual column need not be stored —
       the next expansion's Gram-Schmidt projections recompute them
       (they equal beta * s_last in exact arithmetic) when it
       assembles that column. *)
    (* locked Ritz block size: 0 until the first restart, [keep]
       after — the compressed survivors every subsequent step must be
       kept explicitly orthogonal to *)
    let keep_live = ref 0 in
    let restart vals vecs next =
      let mm = !m in
      let order = Array.init mm Fun.id in
      Array.sort
        (fun a b ->
          let c = Float.compare vals.(b) vals.(a) in
          if c <> 0 then c else Int.compare a b)
        order;
      let u = Array.init keep (fun k ->
          let s = Array.init mm (fun i -> vecs.(i).(order.(k))) in
          let y = zeros () in
          for i = 0 to mm - 1 do
            let si = s.(i) in
            let qi = q.(i) in
            for kk = 0 to n - 1 do
              y.(kk) <- y.(kk) +. (si *. qi.(kk))
            done
          done;
          y)
      in
      for i = 0 to max_basis - 1 do
        for j = 0 to max_basis - 1 do
          tm.(i).(j) <- 0.0
        done
      done;
      Array.iteri (fun k y -> q.(k) <- y) u;
      (match next with Some qnext -> q.(keep) <- qnext | None -> ());
      for k = 0 to keep - 1 do
        tm.(k).(k) <- vals.(order.(k))
      done;
      keep_live := keep;
      m := keep + (match next with Some _ -> 1 | None -> 0)
    in
    let converged = ref false in
    let exhausted = ref false in
    let pair1_met = ref false in
    (* pair-2 plateau state: armed once pair 1 converges *)
    let pair1_done = ref false in
    let stall_mark = ref infinity in
    let stall_best = ref infinity in
    let stall_count = ref 0 in
    while (not !converged) && (not !exhausted) && !applies < max_applies do
      let j = !m - 1 in
      let w = zeros () in
      let c1 = apply q.(j) w in
      incr applies;
      (* Selective reorthogonalization.  In exact arithmetic w = M q_j
         is already orthogonal to all basis vectors except the two
         recurrence partners q_j, q_{j-1} — plus the locked Ritz block
         on the first column after a restart (the arrowhead).  So each
         Gram-Schmidt pass projects only against the trivial vector,
         the locked block (drift against converged Ritz directions is
         the classic ghost-eigenvalue source, so it is policed every
         step), and the recurrence partners; intermediate basis
         vectors are skipped — their coupling is O(eps) drift that a
         32-step cycle keeps below semi-orthogonality.  The DGKS
         cancellation test gates a second pass over the same set.
         Skipped couplings enter T as their exact-arithmetic zeros.
         The first pass takes its v1 coefficient from the matvec; the
         second recomputes it from the updated w. *)
      let h = Array.make !m 0.0 in
      let v1 = op.Spectral_op.v1 in
      let pass c1 =
        for k = 0 to n - 1 do
          w.(k) <- w.(k) -. (c1 *. v1.(k))
        done;
        for i = 0 to !m - 1 do
          if i < !keep_live || i >= j - 1 then begin
            let c = Spectral_op.dot op w q.(i) in
            let qi = q.(i) in
            for k = 0 to n - 1 do
              w.(k) <- w.(k) -. (c *. qi.(k))
            done;
            h.(i) <- h.(i) +. c
          end
        done
      in
      let before = sqrt (Spectral_op.dot op w w) in
      pass c1;
      let after = sqrt (Spectral_op.dot op w w) in
      if after < 0.707 *. before then pass (Spectral_op.dot op w v1);
      for i = 0 to j do
        tm.(i).(j) <- h.(i);
        if i <> j then tm.(j).(i) <- h.(i)
      done;
      let beta = sqrt (Spectral_op.dot op w w) in
      solve_ritz ();
      let vals, vecs, mm = !ritz in
      let i1, i2 = top2_indices vals mm in
      let scale = max 1.0 (abs_float vals.(i1)) in
      let res1 = beta *. abs_float vecs.(mm - 1).(i1) in
      let res2 =
        match i2 with Some i -> beta *. abs_float vecs.(mm - 1).(i) | None -> infinity
      in
      pair1_met := mm >= 2 && res1 <= tol *. scale;
      if !pair1_met then begin
        if res2 <= tol *. scale then converged := true
        else if not !pair1_done then begin
          pair1_done := true;
          stall_mark := res2;
          stall_best := res2;
          stall_count := 0
        end
        else begin
          if res2 < !stall_best then stall_best := res2;
          incr stall_count;
          if !stall_count >= lanczos_stall_window then begin
            if !stall_best > lanczos_stall_factor *. !stall_mark then converged := true
            else begin
              stall_mark := !stall_best;
              stall_count := 0
            end
          end
        end
      end;
      if !converged then ()
      else if beta > breakdown_tol then begin
        let qnext = Array.map (fun x -> x /. beta) w in
        if !m = max_basis then restart vals vecs (Some qnext)
        else begin
          q.(!m) <- qnext;
          incr m
        end
      end
      else begin
        (* invariant subspace: recover with a fresh deterministic
           direction, or accept what the subspace holds *)
        match fresh_direction () with
        | Some d ->
          if !m = max_basis then restart vals vecs None;
          q.(!m) <- d;
          incr m
        | None -> exhausted := true
      end
    done;
    let vals, vecs, mm = !ritz in
    let i1, i2 = top2_indices vals mm in
    let form k =
      let y = zeros () in
      for i = 0 to mm - 1 do
        let si = vecs.(i).(k) in
        let qi = q.(i) in
        for kk = 0 to n - 1 do
          y.(kk) <- y.(kk) +. (si *. qi.(kk))
        done
      done;
      ignore (Spectral_op.normalize op y);
      y
    in
    let py1 = form i1 in
    let py2 = match i2 with Some i -> form i | None -> zeros () in
    {
      theta1 = vals.(i1);
      py1;
      py2;
      applies = !applies;
      pair1_converged = !pair1_met || !exhausted;
    }
  end

(* ---- the backend registry ---- *)

(* Uniform backend contract: the full solve (lambda2, both y-space
   vectors, operator applications).  Power remains the bit-exact
   reference; Lanczos extracts the pair from one Krylov basis.  Both
   are deterministic (no Fn_prng state is drawn) and bit-stable across
   ?domains. *)
type solved = {
  s_lambda2 : float;
  s_f1 : float array;
  s_f2 : float array;
  s_it_first : int;  (** iterations attributed to the first vector *)
  s_it_total : int;  (** total operator applications *)
  s_converged : bool;  (** the first vector (Power) or pair 1 (Lanczos) met [tol] *)
}

let solve_power op ~max_iter ~tol =
  Spectral_op.with_matvec op (fun m ->
      let lambda2, y1, f1, it1, converged =
        power_iteration op m ~max_iter ~tol ~deflate_against:[] ()
      in
      let _, _, f2, it2, _ =
        power_iteration op m ~max_iter ~tol ~deflate_against:[ y1 ] ()
      in
      {
        s_lambda2 = lambda2;
        s_f1 = f1;
        s_f2 = f2;
        s_it_first = it1;
        s_it_total = it1 + it2;
        s_converged = converged;
      })

let solve_lanczos op ~max_iter ~tol =
  Spectral_op.with_apply op (fun apply ->
      let p = lanczos_top2 op ~apply ~max_applies:(2 * max_iter) ~tol in
      {
        s_lambda2 = max 0.0 (2.0 -. p.theta1);
        s_f1 = Spectral_op.embed op p.py1;
        s_f2 = Spectral_op.embed op p.py2;
        s_it_first = p.applies;
        s_it_total = p.applies;
        s_converged = p.pair1_converged;
      })

let run_method method_ op ~max_iter ~tol =
  match method_ with
  | Method.Power -> solve_power op ~max_iter ~tol
  | Method.Lanczos -> solve_lanczos op ~max_iter ~tol

(* an explicit [method_] wins; otherwise the size policy picks *)
let resolve op = function
  | Some m -> m
  | None -> Method.select ~n_alive:(Spectral_op.alive_count op)

let iterations_histogram () =
  Fn_obs.Metrics.histogram
    ~buckets:[| 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1000.0 |]
    "spectral.iterations"

(* ---- public entry points ---- *)

let lambda2 ?(obs = Fn_obs.Sink.null) ?alive ?(domains = 1) ?(max_iter = 1000)
    ?(tol = 1e-9) ?method_ view =
  let on = Fn_obs.Sink.enabled obs in
  let sp = if on then Fn_obs.Span.enter obs "spectral.lambda2" else Fn_obs.Span.null in
  let op = Spectral_op.create ?alive ~domains view in
  let m = resolve op method_ in
  let lambda2, fiedler, iterations, converged =
    match m with
    | Method.Power ->
      Spectral_op.with_matvec op (fun mv ->
          let lambda2, _, fiedler, iterations, converged =
            power_iteration op mv ~max_iter ~tol ~deflate_against:[] ()
          in
          (lambda2, fiedler, iterations, converged))
    | Method.Lanczos ->
      let s = solve_lanczos op ~max_iter ~tol in
      (s.s_lambda2, s.s_f1, s.s_it_total, s.s_converged)
  in
  if on then begin
    Fn_obs.Span.exit sp
      ~fields:
        [
          ("lambda2", Fn_obs.Sink.Float lambda2);
          ("iterations", Fn_obs.Sink.Int iterations);
          ("method", Fn_obs.Sink.Str (Method.to_string m));
          ("converged", Fn_obs.Sink.Bool converged);
        ];
    Fn_obs.Metrics.observe (iterations_histogram ()) (float_of_int iterations)
  end;
  { lambda2; fiedler; iterations; converged }

let solve ?(obs = Fn_obs.Sink.null) ?alive ?(domains = 1) ?(max_iter = 1000)
    ?(tol = 1e-9) ?method_ view =
  let on = Fn_obs.Sink.enabled obs in
  let sp = if on then Fn_obs.Span.enter obs "spectral.solve" else Fn_obs.Span.null in
  let op = Spectral_op.create ?alive ~domains view in
  let m = resolve op method_ in
  let s = run_method m op ~max_iter ~tol in
  if on then begin
    Fn_obs.Span.exit sp
      ~fields:
        [
          ("lambda2", Fn_obs.Sink.Float s.s_lambda2);
          ("iterations", Fn_obs.Sink.Int s.s_it_total);
          ("method", Fn_obs.Sink.Str (Method.to_string m));
          ("converged", Fn_obs.Sink.Bool s.s_converged);
        ];
    Fn_obs.Metrics.observe (iterations_histogram ()) (float_of_int s.s_it_total)
  end;
  ( {
      lambda2 = s.s_lambda2;
      fiedler = s.s_f1;
      iterations = s.s_it_first;
      converged = s.s_converged;
    },
    s.s_f2 )

let cheeger_lower r = r.lambda2 /. 2.0

let conductance_to_edge_expansion_lb ?alive view phi =
  let is_alive v = match alive with None -> true | Some m -> Bitset.mem m v in
  let iter = Gview.iter_neighbors view in
  let dmin = ref max_int in
  for v = 0 to Gview.num_nodes view - 1 do
    if is_alive v then begin
      let d = ref 0 in
      iter v (fun w -> if is_alive w then incr d);
      dmin := min !dmin !d
    end
  done;
  phi *. float_of_int (if !dmin = max_int then 0 else !dmin) /. 2.0
