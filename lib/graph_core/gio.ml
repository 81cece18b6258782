let to_edge_list_string g =
  let buf = Buffer.create (16 * Graph.num_edges g) in
  Buffer.add_string buf
    (Printf.sprintf "# nodes %d edges %d\n" (Graph.num_nodes g) (Graph.num_edges g));
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

let of_edge_list_string s =
  let lines = String.split_on_char '\n' s in
  let n = ref (-1) in
  let edges = ref [] in
  let parse_header line =
    try Scanf.sscanf line "# nodes %d edges %d" (fun nodes _ -> n := nodes)
    with Scanf.Scan_failure _ | End_of_file -> ()
  in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if line = "" then ()
      else if String.length line > 0 && line.[0] = '#' then parse_header line
      else
        match String.split_on_char ' ' line |> List.filter (fun x -> x <> "") with
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some u, Some v -> edges := (u, v) :: !edges
          | _ -> failwith (Printf.sprintf "Gio: bad edge on line %d: %S" (lineno + 1) line))
        | _ -> failwith (Printf.sprintf "Gio: bad line %d: %S" (lineno + 1) line))
    lines;
  let nodes =
    if !n >= 0 then !n
    else 1 + List.fold_left (fun acc (u, v) -> max acc (max u v)) (-1) !edges
  in
  Graph.of_edges nodes !edges

let save path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_edge_list_string g))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      of_edge_list_string s)
