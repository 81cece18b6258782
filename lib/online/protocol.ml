type command =
  | Alive of int
  | Certificate of int
  | Alpha
  | Apply of Event.t list
  | Stats
  | Audit
  | State
  | Quit

type error =
  | Bad_command of string
  | Bad_node of string
  | Bad_event of string
  | Line_too_long of int
  | Batch_too_large of int

type limits = {
  max_line_bytes : int;
  max_batch_events : int;
}

let default_limits = { max_line_bytes = 65536; max_batch_events = 4096 }

let error_code = function
  | Bad_command _ -> "bad-command"
  | Bad_node _ -> "bad-node"
  | Bad_event _ -> "bad-event"
  | Line_too_long _ -> "line-too-long"
  | Batch_too_large _ -> "batch-too-large"

let error_detail = function
  | Bad_command d | Bad_node d | Bad_event d -> d
  | Line_too_long n -> Printf.sprintf "%d bytes (limit applies to the whole line)" n
  | Batch_too_large n -> Printf.sprintf "%d events in one apply" n

let error_to_string e = error_code e ^ " " ^ error_detail e

let float_hex f = Printf.sprintf "%h" f

let render = function
  | Alive v -> "alive? " ^ string_of_int v
  | Certificate v -> "certificate? " ^ string_of_int v
  | Alpha -> "alpha?"
  | Apply evs -> "apply " ^ String.concat " " (List.map Event.to_token evs)
  | Stats -> "stats?"
  | Audit -> "audit!"
  | State -> "state?"
  | Quit -> "quit"

let tokens line =
  List.filter (fun s -> String.length s > 0) (String.split_on_char ' ' line)

(* Total decoding of one node argument: anything that is not an
   in-range id is the same typed refusal, whether it failed to parse,
   is negative, or walks off the end of the universe.  Hostile input
   must not reach the engine's invalid_arg guards.  The id is read as
   the id of a fault token, so queries and apply events accept exactly
   one spelling of each id ({!Event.of_token}). *)
let node_arg ~n word v k =
  match Event.of_token ("f" ^ v) with
  | Some (Event.Fault id) when id >= 0 && id < n -> Ok (Some (k id))
  | Some (Event.Fault id) ->
    Error (Bad_node (Printf.sprintf "%s wants a node in [0, %d), got %d" word n id))
  | Some (Event.Repair _) | None ->
    Error (Bad_node (Printf.sprintf "%s needs a node id, got %S" word v))

let parse ?(limits = default_limits) ~n line =
  if String.length line > limits.max_line_bytes then
    Error (Line_too_long (String.length line))
  else
    let line = String.trim line in
    if String.length line = 0 || line.[0] = '#' then Ok None
    else
      match tokens line with
      | [] -> Ok None
      | [ "alive?"; v ] -> node_arg ~n "alive?" v (fun v -> Alive v)
      | [ "certificate?"; v ] -> node_arg ~n "certificate?" v (fun v -> Certificate v)
      | [ "alpha?" ] -> Ok (Some Alpha)
      | [ "stats?" ] -> Ok (Some Stats)
      | [ "state?" ] -> Ok (Some State)
      | [ "audit!" ] -> Ok (Some Audit)
      | [ "quit" ] -> Ok (Some Quit)
      | "apply" :: evs -> (
        match evs with
        | [] -> Error (Bad_event "apply needs at least one f<id>/r<id> event")
        | _ :: _ when List.length evs > limits.max_batch_events ->
          Error (Batch_too_large (List.length evs))
        | _ :: _ ->
          let rec decode acc = function
            | [] -> Ok (Some (Apply (List.rev acc)))
            | tok :: rest -> (
              match Event.of_token tok with
              | Some e ->
                let v = Fn_faults.Churn.event_node e in
                if v >= 0 && v < n then decode (e :: acc) rest
                else
                  Error
                    (Bad_node (Printf.sprintf "event %s names a node outside [0, %d)" tok n))
              | None ->
                Error (Bad_event (Printf.sprintf "bad event token %S (want f<id>/r<id>)" tok)))
          in
          decode [] evs)
      | cmd :: _ -> Error (Bad_command (Printf.sprintf "unknown command %S" cmd))
