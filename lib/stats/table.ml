type t = { headers : string list; mutable rows : string list list }

let create headers =
  if headers = [] then invalid_arg "Table.create: no headers";
  { headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let format_float precision v =
  if Float.is_integer v && abs_float v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.*f" precision v

let add_float_row ?(precision = 4) t label floats =
  add_row t (label :: List.map (format_float precision) floats)

let headers t = t.headers

let rows t = List.rev t.rows

let all_rows t = t.headers :: List.rev t.rows

let to_string t =
  let rows = all_rows t in
  let cols = List.length t.headers in
  let widths = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    rows;
  let render_row row =
    String.concat "  " (List.mapi (fun i cell -> Printf.sprintf "%-*s" widths.(i) cell) row)
  in
  let header = render_row t.headers in
  let rule = String.make (String.length header) '-' in
  String.concat "\n" (header :: rule :: List.map render_row (List.rev t.rows))

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let to_csv t =
  String.concat "\n" (List.map (fun row -> String.concat "," (List.map csv_escape row)) (all_rows t))
