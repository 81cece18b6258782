type t = Fn_faults.Churn.event =
  | Fault of int
  | Repair of int

let to_token = function
  | Fault v -> "f" ^ string_of_int v
  | Repair v -> "r" ^ string_of_int v

(* A node id has one spelling, the one [string_of_int] prints: an
   optional minus sign, then "0" or digits without a leading zero.
   [int_of_string] alone would also read OCaml literals ("0x10", "1_7",
   "0b11", "+9", "007"), so two request logs could name one event
   differently.  "-0" is refused too: it would be a second spelling of 0.
   [node_at s pos] decodes [s] from [pos] to its end without copying it.
   Digits accumulate negatively, so min_int fits and any overflow is
   refused. *)
let node_at s pos =
  let n = String.length s in
  let neg = pos < n && s.[pos] = '-' in
  let first = if neg then pos + 1 else pos in
  let rec go i acc =
    if i = n then (if neg then Some acc else if acc = min_int then None else Some (-acc))
    else
      match s.[i] with
      | '0' .. '9' as c ->
        let d = Char.code c - Char.code '0' in
        if acc < (min_int + d) / 10 then None else go (i + 1) ((acc * 10) - d)
      | _ -> None
  in
  if first >= n || (s.[first] = '0' && (neg || n > first + 1)) then None else go first 0

let of_token s =
  if String.length s < 2 then None
  else
    match s.[0] with
    | 'f' -> Option.map (fun v -> Fault v) (node_at s 1)
    | 'r' -> Option.map (fun v -> Repair v) (node_at s 1)
    | _ -> None

let batch_to_json events =
  Fn_obs.Jsonx.List (List.map (fun e -> Fn_obs.Jsonx.Str (to_token e)) events)

let batch_of_json json =
  match json with
  | Fn_obs.Jsonx.List items ->
    let rec decode acc = function
      | [] -> Some (List.rev acc)
      | Fn_obs.Jsonx.Str s :: rest -> (
        match of_token s with Some e -> decode (e :: acc) rest | None -> None)
      | _ -> None
    in
    decode [] items
  | _ -> None
