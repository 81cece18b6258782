open Fn_graph
open Fn_prng

type curve = { occupied_largest : int array; total : int; n : int }

let sweep_done obs kind start_ns c =
  if Fn_obs.Sink.enabled obs then begin
    Fn_obs.Span.instant obs "percolation.sweep"
      ~fields:
        [
          ("kind", Fn_obs.Sink.Str kind);
          ("total", Fn_obs.Sink.Int c.total);
          ("n", Fn_obs.Sink.Int c.n);
          ( "largest",
            Fn_obs.Sink.Int
              (if c.total = 0 then 1 else c.occupied_largest.(c.total - 1)) );
          ("seconds", Fn_obs.Sink.Float (Fn_obs.Clock.elapsed_s ~since_ns:start_ns));
        ];
    Fn_obs.Metrics.incr (Fn_obs.Metrics.counter "percolation.sweeps")
  end;
  c

(* The sweeps take a [Gview.t]: site occupation is one loop over the
   view's neighbor iterator, and the bond sweep needs one flat endpoint
   array (inherent to Newman–Ziff's random edge order) which the
   implicit arm collects from the generator without ever building a
   CSR structure. *)

let site_run ?(obs = Fn_obs.Sink.null) rng view =
  let start_ns = if Fn_obs.Sink.enabled obs then Fn_obs.Clock.now_ns () else 0 in
  let iter = Gview.iter_neighbors view in
  let n = Gview.num_nodes view in
  let order = Rng.permutation rng n in
  let uf = Union_find.create n in
  let occupied = Array.make n false in
  let out = Array.make (max n 1) 1 in
  let absorb v w = if occupied.(w) then ignore (Union_find.union uf v w) in
  Array.iteri
    (fun k v ->
      occupied.(v) <- true;
      iter v (fun w -> absorb v w);
      out.(k) <- Union_find.max_component_size uf)
    order;
  sweep_done obs "site" start_ns { occupied_largest = out; total = n; n }

let bond_run_edges ?(obs = Fn_obs.Sink.null) rng ~n edges =
  let start_ns = if Fn_obs.Sink.enabled obs then Fn_obs.Clock.now_ns () else 0 in
  let m = Array.length edges in
  Rng.shuffle rng edges;
  let uf = Union_find.create n in
  let out = Array.make (max m 1) 1 in
  Array.iteri
    (fun k (u, v) ->
      ignore (Union_find.union uf u v);
      out.(k) <- Union_find.max_component_size uf)
    edges;
  sweep_done obs "bond" start_ns { occupied_largest = out; total = m; n }

(* The two arms build the same sorted edge array differently: the CSR
   edge list is already in [Graph.edges] order; the implicit arm
   collects the generator's edges and sorts them into that order, so
   the shuffled sequence — and the whole curve — is byte-identical
   across arms for the same rng. *)
let bond_run ?obs rng view =
  let n = Gview.num_nodes view in
  match view with
  | Gview.Csr g -> bond_run_edges ?obs rng ~n (Graph.edges g)
  | Gview.Implicit _ ->
    let m = Gview.num_edges view in
    let edges = Array.make (max 1 m) (0, 0) in
    let k = ref 0 in
    Gview.iter_edges view (fun u v ->
        edges.(!k) <- (u, v);
        incr k);
    let edges = Array.sub edges 0 m in
    Array.sort Graph.compare_int_pair edges;
    bond_run_edges ?obs rng ~n edges

let gamma_at c p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Newman_ziff.gamma_at: p out of [0,1]";
  if c.n = 0 then 0.0
  else begin
    let k = int_of_float (Float.round (p *. float_of_int c.total)) in
    if k <= 0 then if c.total = 0 then 0.0 else 1.0 /. float_of_int c.n
    else begin
      let k = min k c.total in
      float_of_int c.occupied_largest.(k - 1) /. float_of_int c.n
    end
  end
