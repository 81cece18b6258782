open Fn_graph

type t = {
  n : int;
  radius : int;
  threshold : float;
  max_dirty_frac : float; (* shed batches dirtying more than this fraction of n *)
  bfs : Delta_bfs.t;
  dirty : Dirty.t;
  alive : Bitset.t; (* owned copy of the live mask *)
  mutable alive_count : int;
  qual : Bitset.t; (* alive nodes whose ball meets the ratio bound *)
  s_of : int array; (* ball size per alive node, vs the current mask *)
  mutable cached : Faultnet.Prune.result option;
  mutable deferred : bool; (* candidate state is stale; [cached] serves reads *)
  mutable shed : int; (* batches applied without refreshing candidates *)
  mutable recomputed : int; (* candidate surveys since creation *)
}

let qualifies t s b = float_of_int b <= t.threshold *. float_of_int s

(* Refresh one node's candidate state against the current mask: a dead
   node holds no candidate; an alive node's ball is re-surveyed and
   its ratio bound re-tested.  The size-vs-half condition is NOT part
   of [qual] — it depends on the global alive count, so the cascade
   tests it at pick time against the evolving total. *)
let recompute_candidate t v =
  if Bitset.mem t.alive v then begin
    t.recomputed <- t.recomputed + 1;
    let s, b = Delta_bfs.survey t.bfs ~alive:t.alive ~radius:t.radius v in
    t.s_of.(v) <- s;
    Bitset.set t.qual v (qualifies t s b)
  end
  else Bitset.remove t.qual v

let create ?(radius = 2) ?(max_dirty_frac = 1.0) view ~alive ~alpha ~epsilon =
  if not (alpha > 0.0) then invalid_arg "Cert.create: alpha must be positive";
  if not (epsilon > 0.0 && epsilon < 1.0) then invalid_arg "Cert.create: need 0 < epsilon < 1";
  if radius < 1 then invalid_arg "Cert.create: radius must be >= 1";
  if not (max_dirty_frac > 0.0 && max_dirty_frac <= 1.0) then
    invalid_arg "Cert.create: need 0 < max_dirty_frac <= 1";
  let n = Gview.num_nodes view in
  if Bitset.universe alive <> n then invalid_arg "Cert.create: universe mismatch";
  let t =
    {
      n;
      radius;
      threshold = alpha *. epsilon;
      max_dirty_frac;
      bfs = Delta_bfs.create view;
      dirty = Dirty.create n;
      alive = Bitset.copy alive;
      alive_count = Bitset.cardinal alive;
      qual = Bitset.create n;
      s_of = Array.make (max 1 n) 0;
      cached = None;
      deferred = false;
      shed = 0;
      recomputed = 0;
    }
  in
  Bitset.iter (fun v -> recompute_candidate t v) t.alive;
  t

let alive t = Bitset.copy t.alive
let alive_count t = t.alive_count
let recomputed t = t.recomputed
let dirty_peak t = Dirty.peak t.dirty
let last_dirty t = Dirty.count t.dirty

(* The Prune cascade, run lazily over the maintained candidate state.
   Local copies [a]/[w] of alive/qual evolve as balls are culled; ball
   sizes updated mid-cascade live in a hash overlay rather than an
   O(n) array copy.  By induction each round picks exactly the set the
   ascending-scan finder would pick from scratch on [a], so the result
   is field-for-field the from-scratch [scratch] run. *)
let cascade t =
  let a = Bitset.copy t.alive in
  let w = Bitset.copy t.qual in
  let total = ref t.alive_count in
  let overlay = Hashtbl.create 64 in
  let s_at v = match Hashtbl.find_opt overlay v with Some s -> s | None -> t.s_of.(v) in
  let recompute_local v =
    if Bitset.mem a v then begin
      t.recomputed <- t.recomputed + 1;
      let s, b = Delta_bfs.survey t.bfs ~alive:a ~radius:t.radius v in
      Hashtbl.replace overlay v s;
      Bitset.set w v (qualifies t s b)
    end
    else Bitset.remove w v
  in
  let rec pick from =
    match Bitset.next_member w from with
    | None -> None
    | Some v -> if 2 * s_at v <= !total then Some v else pick (v + 1)
  in
  let culled = ref [] and iterations = ref 0 in
  let running = ref true in
  while !running do
    if !total < 2 then running := false
    else
      match pick 0 with
      | None -> running := false
      | Some v ->
        incr iterations;
        let ball = Bitset.create t.n in
        let s, b = Delta_bfs.survey t.bfs ~alive:a ~into:ball ~radius:t.radius v in
        culled := { Faultnet.Prune.set = ball; size = s; boundary = b } :: !culled;
        Bitset.diff_into a ball;
        Bitset.diff_into w ball;
        total := !total - s;
        let sources = Bitset.fold (fun u acc -> u :: acc) ball [] in
        (* collect first, recompute after: the region traversal and the
           per-candidate surveys share [t.bfs]'s scratch arrays, so the
           callback must not re-enter [survey] mid-traversal *)
        let touched = ref [] in
        Delta_bfs.region t.bfs ~radius:(t.radius + 1) ~sources (fun u ->
            touched := u :: !touched);
        List.iter recompute_local !touched
  done;
  {
    Faultnet.Prune.kept = a;
    culled = List.rev !culled;
    iterations = !iterations;
    threshold = t.threshold;
  }

let result t =
  match t.cached with
  | Some r -> r
  | None ->
    let r = cascade t in
    t.cached <- Some r;
    r

let set_result t r = t.cached <- Some r
let degraded t = t.deferred
let shed t = t.shed

(* Rebuild every candidate against the current mask and leave deferred
   mode: the "scheduled full recompute" that pays off the batches shed
   while overloaded, and the quarantine rebuild after an audit
   divergence.  O(n · ball), like creation. *)
let refresh t =
  Bitset.clear t.qual;
  t.cached <- None;
  t.deferred <- false;
  Bitset.iter (fun v -> recompute_candidate t v) t.alive

let flip t events =
  List.iter
    (fun ev ->
      match ev with
      | Fn_faults.Churn.Fault v ->
        Bitset.remove t.alive v;
        t.alive_count <- t.alive_count - 1
      | Fn_faults.Churn.Repair v ->
        Bitset.add t.alive v;
        t.alive_count <- t.alive_count + 1)
    events

(* Apply a normalized churn batch.  The dirty region — every node
   within unrestricted distance radius + 1 of a change (the locality
   lemma: nothing further away can have moved) — is measured {e
   before} the aliveness flips, because it is also the overload
   signal: a batch dirtying more than [max_dirty_frac] of the graph is
   {e shed} rather than absorbed.  Shedding pins the pre-batch cascade
   as the stale answer reads will serve (forced here, so the served
   value is a pure function of the accepted batch history, never of
   query timing), flips aliveness, and defers all candidate work; the
   full rebuild runs at the next batch that is back under the
   threshold (or at an audit).  Un-shed batches refresh exactly the
   dirty region, as before. *)
let apply t events =
  match events with
  | [] -> ()
  | _ :: _ ->
    let changed = List.map Fn_faults.Churn.event_node events in
    Dirty.next_generation t.dirty;
    Delta_bfs.region t.bfs ~radius:(t.radius + 1) ~sources:changed (fun v ->
        Dirty.mark t.dirty v);
    let overload =
      float_of_int (Dirty.count t.dirty) > t.max_dirty_frac *. float_of_int t.n
    in
    if overload then begin
      if (not t.deferred) && Option.is_none t.cached then t.cached <- Some (cascade t);
      flip t events;
      t.deferred <- true;
      t.shed <- t.shed + 1
    end
    else if t.deferred then begin
      (* load is back under the threshold: catch up in one rebuild
         that also absorbs this batch's changes *)
      flip t events;
      refresh t
    end
    else begin
      flip t events;
      Dirty.iter t.dirty (fun v -> recompute_candidate t v);
      t.cached <- None
    end

(* The from-scratch reference: Prune(ε) with a finder that scans alive
   nodes in ascending id order and returns the first radius-bounded
   ball meeting both the ratio bound and the half-size condition.
   [result] must equal this on the same mask — the differential tests
   drive exactly that comparison. *)
let scratch_finder ?(radius = 2) view =
  let bfs = Delta_bfs.create view in
  let n = Gview.num_nodes view in
  fun ~alive (_ : Gview.t) ~threshold ->
    let total = Bitset.cardinal alive in
    let rec scan from =
      match Bitset.next_member alive from with
      | None -> None
      | Some v ->
        let s, b = Delta_bfs.survey bfs ~alive ~radius v in
        if float_of_int b <= threshold *. float_of_int s && 2 * s <= total then begin
          let ball = Bitset.create n in
          let _ = Delta_bfs.survey bfs ~alive ~into:ball ~radius v in
          Some ball
        end
        else scan (v + 1)
    in
    scan 0

let scratch ?radius ?obs view ~alive ~alpha ~epsilon =
  Faultnet.Prune.run_v ?obs ~finder:(scratch_finder ?radius view) view ~alive ~alpha
    ~epsilon
