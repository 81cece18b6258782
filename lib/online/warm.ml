open Fn_graph

type mode = Exact | Warm

let mode_to_string = function Exact -> "exact" | Warm -> "warm"

let mode_of_string = function
  | "exact" -> Some Exact
  | "warm" -> Some Warm
  | _ -> None

let memo_cap = 8

type t = {
  mode : mode;
  seed : int;
  domains : int option;
  residual_tol : float;
  mutable pair : (float array * float array) option; (* last Fiedler pair *)
  mutable last : (Bitset.t * float) option; (* newest kept -> alpha *)
  mutable memo : (Bitset.t * float) list; (* Exact-mode history, newest first *)
  mutable computes : int;
  mutable warm_hits : int;
  mutable cold_falls : int;
}

let create ?(mode = Exact) ?(residual_tol = 0.25) ?domains seed =
  {
    mode;
    seed;
    domains;
    residual_tol;
    pair = None;
    last = None;
    memo = [];
    computes = 0;
    warm_hits = 0;
    cold_falls = 0;
  }

let mode t = t.mode
let computes t = t.computes
let warm_hits t = t.warm_hits
let cold_falls t = t.cold_falls

(* The history-free alpha of a mask: a fresh seed-derived rng every
   call, so the value depends only on (view, kept, seed) —
   what both the Exact engine path and the from-scratch differential
   reference compute, making the two byte-identical.  Fewer than 2
   survivors have expansion 0 by convention; an implicit view whose
   portfolio exhibits no witness reports infinity ("no upper bound
   found"). *)
let reference ~seed ?domains view ~kept =
  if Bitset.cardinal kept < 2 then 0.0
  else begin
    let rng = Fn_prng.Rng.create (seed lxor 0x0A11CE) in
    match view with
    | Gview.Csr g ->
      (Fn_expansion.Estimate.run ~alive:kept ~rng ?domains g Fn_expansion.Cut.Node)
        .Fn_expansion.Estimate.value
    | Gview.Implicit _ -> (
      match
        Fn_expansion.Estimate.ball_witness ~alive:kept ~rng view Fn_expansion.Cut.Node
      with
      | Some c -> c.Fn_expansion.Cut.value
      | None -> infinity)
  end

let rec take k = function
  | [] -> []
  | x :: tl -> if k <= 0 then [] else x :: take (k - 1) tl

(* Warm path: reuse the previous Fiedler pair as the spectral start
   when BOTH vectors' residuals on the new mask are still small, else
   fall back cold.  Gating on the first vector alone let a stale
   second vector ride through: the pair seeds two iterations (or the
   Krylov basis), and a drifted x2 poisons the deflated solve even
   when x1 still tracks the Fiedler direction.  Only the CSR arm is
   spectral; implicit views use the reference portfolio either way. *)
let warm_compute t view ~kept =
  t.computes <- t.computes + 1;
  if Bitset.cardinal kept < 2 then 0.0
  else begin
    match view with
    | Gview.Csr g ->
      let warm =
        match t.pair with
        | Some (x1, x2)
          when Fn_expansion.Spectral.residual ~alive:kept view x1 <= t.residual_tol
               && Fn_expansion.Spectral.residual ~alive:kept view x2 <= t.residual_tol ->
          t.warm_hits <- t.warm_hits + 1;
          t.pair
        | Some _ ->
          t.cold_falls <- t.cold_falls + 1;
          None
        | None -> None
      in
      let est =
        Fn_expansion.Estimate.run ~alive:kept
          ~rng:(Fn_prng.Rng.create (t.seed lxor 0x0A11CE))
          ?domains:t.domains ?warm g Fn_expansion.Cut.Node
      in
      t.pair <- est.Fn_expansion.Estimate.fiedler_pair;
      est.Fn_expansion.Estimate.value
    | Gview.Implicit _ -> reference ~seed:t.seed ?domains:t.domains view ~kept
  end

let query t view ~kept =
  match t.last with
  | Some (k, a) when Bitset.equal k kept -> a
  | _ ->
    let a =
      match t.mode with
      | Exact -> (
        match List.find_opt (fun (k, _) -> Bitset.equal k kept) t.memo with
        | Some (_, a) -> a
        | None ->
          let a = reference ~seed:t.seed ?domains:t.domains view ~kept in
          t.computes <- t.computes + 1;
          t.memo <- (Bitset.copy kept, a) :: take (memo_cap - 1) t.memo;
          a)
      | Warm -> warm_compute t view ~kept
    in
    t.last <- Some (Bitset.copy kept, a);
    a

let force t ~kept a =
  t.pair <- None;
  t.last <- Some (Bitset.copy kept, a)

let reconcile t view ~kept =
  t.pair <- None;
  let a = reference ~seed:t.seed ?domains:t.domains view ~kept in
  t.computes <- t.computes + 1;
  t.last <- Some (Bitset.copy kept, a);
  a
