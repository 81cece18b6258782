open Fn_graph

let memo_cap = 8

type t = {
  seed : int;
  domains : int option;
  mutable last : (Bitset.t * float) option; (* newest kept -> alpha *)
  mutable memo : (Bitset.t * float) list; (* computed estimates, newest first *)
  mutable computes : int;
}

let create ?domains seed = { seed; domains; last = None; memo = []; computes = 0 }

let computes t = t.computes

(* The history-free alpha of a mask: a fresh seed-derived rng every
   call, so the value depends only on (view, kept, seed) — what both
   the engine's cached path and the from-scratch differential
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

let query t view ~kept =
  match t.last with
  | Some (k, a) when Bitset.equal k kept -> a
  | _ ->
    let a =
      match List.find_opt (fun (k, _) -> Bitset.equal k kept) t.memo with
      | Some (_, a) -> a
      | None ->
        let a = reference ~seed:t.seed ?domains:t.domains view ~kept in
        t.computes <- t.computes + 1;
        t.memo <- (Bitset.copy kept, a) :: take (memo_cap - 1) t.memo;
        a
    in
    t.last <- Some (Bitset.copy kept, a);
    a

let force t ~kept a = t.last <- Some (Bitset.copy kept, a)
