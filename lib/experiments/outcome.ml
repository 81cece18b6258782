type t = {
  id : string;
  title : string;
  table : Fn_stats.Table.t;
  checks : (string * bool) list;
  notes : string list;
}

let all_passed t = List.for_all snd t.checks

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "=== %s: %s ===\n" t.id t.title);
  Buffer.add_string buf (Fn_stats.Table.to_string t.table);
  Buffer.add_char buf '\n';
  List.iter
    (fun (name, ok) ->
      Buffer.add_string buf (Printf.sprintf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name))
    t.checks;
  List.iter (fun note -> Buffer.add_string buf (Printf.sprintf "  note: %s\n" note)) t.notes;
  Buffer.contents buf

let to_jsonx t =
  let open Fn_obs.Jsonx in
  let str s = Str s in
  Obj
    [
      ("id", Str t.id);
      ("title", Str t.title);
      ("passed", Bool (all_passed t));
      ( "table",
        Obj
          [
            ("headers", List (List.map str (Fn_stats.Table.headers t.table)));
            ( "rows",
              List
                (List.map
                   (fun row -> List (List.map str row))
                   (Fn_stats.Table.rows t.table)) );
          ] );
      ( "checks",
        List
          (List.map
             (fun (name, ok) -> Obj [ ("name", Str name); ("ok", Bool ok) ])
             t.checks) );
      ("notes", List (List.map str t.notes));
    ]

let to_json t = Fn_obs.Jsonx.to_string (to_jsonx t)

(* Outcomes hold only strings and booleans, so parsing [to_jsonx]
   output back reconstructs the value exactly — which is what lets a
   resumed sweep replay journaled outcomes byte-for-byte. *)
let of_jsonx json =
  let module J = Fn_obs.Jsonx in
  let ( let* ) = Option.bind in
  let str = function J.Str s -> Some s | _ -> None in
  let str_list = function
    | J.List items ->
      let decoded = List.map str items in
      if List.for_all Option.is_some decoded then Some (List.map Option.get decoded)
      else None
    | _ -> None
  in
  let* id = Option.bind (J.member "id" json) str in
  let* title = Option.bind (J.member "title" json) str in
  let* table_json = J.member "table" json in
  let* headers = Option.bind (J.member "headers" table_json) str_list in
  let* row_items =
    match J.member "rows" table_json with Some (J.List rows) -> Some rows | _ -> None
  in
  let* rows =
    let decoded = List.map str_list row_items in
    if List.for_all Option.is_some decoded then Some (List.map Option.get decoded)
    else None
  in
  let* check_items =
    match J.member "checks" json with Some (J.List cs) -> Some cs | _ -> None
  in
  let* checks =
    let decode c =
      match (Option.bind (J.member "name" c) str, J.member "ok" c) with
      | Some name, Some (J.Bool ok) -> Some (name, ok)
      | _ -> None
    in
    let decoded = List.map decode check_items in
    if List.for_all Option.is_some decoded then Some (List.map Option.get decoded)
    else None
  in
  let* notes = Option.bind (J.member "notes" json) str_list in
  let table = Fn_stats.Table.create headers in
  match List.iter (Fn_stats.Table.add_row table) rows with
  | () -> Some { id; title; table; checks; notes }
  | exception Invalid_argument _ -> None
