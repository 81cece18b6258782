open Fn_graph

let families =
  "itorus:1000x1000 imesh:100x100 ihypercube:20 mesh:8x8 torus:16x16 hypercube:10 \
   butterfly:4 debruijn:8 shuffle:8 complete:64 cycle:100 expander:256:6 margulis:16 \
   chain:64:4:8 can:2:256"

let parse_dims s =
  let parts = String.split_on_char 'x' s in
  let dims = List.filter_map int_of_string_opt parts in
  if List.length dims = List.length parts && dims <> [] && List.for_all (fun d -> d > 0) dims
  then Some (Array.of_list dims)
  else None

let positive family v =
  match int_of_string_opt v with
  | Some v when v > 0 -> Ok v
  | Some _ | None -> Error (Printf.sprintf "%s wants a positive int, got %S" family v)

let dims family example s =
  match parse_dims s with
  | Some d -> Ok d
  | None -> Error (Printf.sprintf "%s dims must look like %s" family example)

let view rng spec =
  let ( let* ) = Result.bind in
  let csr g = Ok (Gview.Csr g) in
  let csr1 family v make =
    let* v = positive family v in
    csr (make v)
  in
  (* Parameters are checked one at a time; a combination a generator
     refuses (an odd n*d expander, a 2-cycle) raises Invalid_argument,
     which is an invalid spec like any other. *)
  try
    match String.split_on_char ':' spec with
    | [ "itorus"; s ] ->
      let* d = dims "itorus" "1000x1000" s in
      Ok (Implicit.torus d)
    | [ "imesh"; s ] ->
      let* d = dims "imesh" "1000x1000" s in
      Ok (Implicit.mesh d)
    | [ "ihypercube"; d ] ->
      let* d = positive "ihypercube" d in
      Ok (Implicit.hypercube d)
    | [ "mesh"; s ] ->
      let* d = dims "mesh" "8x8" s in
      csr (fst (Mesh.graph d))
    | [ "torus"; s ] ->
      let* d = dims "torus" "8x8" s in
      csr (fst (Torus.graph d))
    | [ "hypercube"; d ] -> csr1 "hypercube" d Hypercube.graph
    | [ "butterfly"; k ] -> csr1 "butterfly" k Butterfly.unwrapped
    | [ "debruijn"; k ] -> csr1 "debruijn" k Debruijn.graph
    | [ "shuffle"; k ] -> csr1 "shuffle" k Shuffle_exchange.graph
    | [ "complete"; n ] -> csr1 "complete" n Basic.complete
    | [ "cycle"; n ] -> csr1 "cycle" n Basic.cycle
    | [ "expander"; n; d ] ->
      let* n = positive "expander" n in
      let* d = positive "expander" d in
      csr (Expander.random_regular rng ~n ~d)
    | [ "margulis"; m ] -> csr1 "margulis" m Expander.margulis
    | [ "chain"; n; d; k ] ->
      let* n = positive "chain" n in
      let* d = positive "chain" d in
      let* k = positive "chain" k in
      csr (Chain_graph.build (Expander.random_regular rng ~n ~d) ~k).Chain_graph.graph
    | [ "can"; d; n ] ->
      let* d = positive "can" d in
      let* n = positive "can" n in
      csr (Can.graph (Can.build rng ~d ~n))
    | _ -> Error ("unknown topology; try " ^ families)
  with Invalid_argument m -> Error m
