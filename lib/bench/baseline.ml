module J = Fn_obs.Jsonx

type meta = {
  suite : string;
  git_rev : string;
  host : string;
  quick : bool;
  created_ns : int;
}

type t = { meta : meta; kernels : Suite.result list }

let schema_version = 1

(* ---- environment stamps ---- *)

let read_first_line path =
  if Sys.file_exists path then (
    let ic = open_in path in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    close_in ic;
    line)
  else None

(* Best-effort: resolve .git/HEAD without shelling out.  Covers the
   direct-hash (detached) and ref-file cases; packed refs degrade to
   the ref name, which still identifies the baseline. *)
let git_rev () =
  match read_first_line ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let prefix = "ref: " in
    if String.length head > String.length prefix
       && String.sub head 0 (String.length prefix) = prefix
    then
      let ref_name = String.sub head 5 (String.length head - 5) in
      match read_first_line (Filename.concat ".git" ref_name) with
      | Some hash -> hash
      | None -> ref_name
    else head

let host () = try Unix.gethostname () with Unix.Unix_error _ -> "unknown"

let of_run ~suite ~quick kernels =
  {
    meta =
      { suite; git_rev = git_rev (); host = host (); quick; created_ns = Fn_obs.Clock.wall_stamp_ns () };
    kernels;
  }

let filename ~suite = "BENCH_" ^ suite ^ ".json"

(* ---- encoding ---- *)

let kernel_to_json (r : Suite.result) =
  let s = r.Suite.stats in
  J.Obj
    [
      ("name", J.Str r.Suite.name);
      ("items", J.Int r.Suite.items);
      ("runs", J.Int s.Suite.runs);
      ("batch", J.Int s.Suite.batch);
      ("median_ns", J.Float s.Suite.median_ns);
      ("mad_ns", J.Float s.Suite.mad_ns);
      ("trimmed_mean_ns", J.Float s.Suite.trimmed_mean_ns);
      ("ci_low_ns", J.Float s.Suite.ci_low_ns);
      ("ci_high_ns", J.Float s.Suite.ci_high_ns);
      ("bytes_per_run", J.Float s.Suite.bytes_per_run);
      ("items_per_sec", J.Float s.Suite.items_per_sec);
    ]

let to_json t =
  J.Obj
    [
      ("schema_version", J.Int schema_version);
      ("suite", J.Str t.meta.suite);
      ("git_rev", J.Str t.meta.git_rev);
      ("host", J.Str t.meta.host);
      ("quick", J.Bool t.meta.quick);
      ("created_ns", J.Int t.meta.created_ns);
      ("kernels", J.List (List.map kernel_to_json t.kernels));
    ]

(* ---- decoding ---- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name j = match J.member name j with Some v -> Ok v | None -> Error ("missing field " ^ name)

let as_str name = function J.Str s -> Ok s | _ -> Error (name ^ " is not a string")
let as_int name = function J.Int i -> Ok i | _ -> Error (name ^ " is not an integer")
let as_bool name = function J.Bool b -> Ok b | _ -> Error (name ^ " is not a bool")

let as_float name = function
  | J.Float f -> Ok f
  | J.Int i -> Ok (float_of_int i)
  | J.Null -> Ok Float.nan (* Jsonx writes non-finite floats as null *)
  | _ -> Error (name ^ " is not a number")

let str_field name j = let* v = field name j in as_str name v
let int_field name j = let* v = field name j in as_int name v
let bool_field name j = let* v = field name j in as_bool name v
let float_field name j = let* v = field name j in as_float name v

let kernel_of_json j =
  let* name = str_field "name" j in
  let* items = int_field "items" j in
  let* runs = int_field "runs" j in
  let* batch = int_field "batch" j in
  let* median_ns = float_field "median_ns" j in
  let* mad_ns = float_field "mad_ns" j in
  let* trimmed_mean_ns = float_field "trimmed_mean_ns" j in
  let* ci_low_ns = float_field "ci_low_ns" j in
  let* ci_high_ns = float_field "ci_high_ns" j in
  let* bytes_per_run = float_field "bytes_per_run" j in
  let* items_per_sec = float_field "items_per_sec" j in
  Ok
    {
      Suite.name;
      items;
      stats =
        {
          Suite.runs;
          batch;
          median_ns;
          mad_ns;
          trimmed_mean_ns;
          ci_low_ns;
          ci_high_ns;
          bytes_per_run;
          items_per_sec;
        };
    }

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = map_result f xs in
    Ok (y :: ys)

let of_json j =
  let* version = int_field "schema_version" j in
  if version <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d (expected %d)" version schema_version)
  else
    let* suite = str_field "suite" j in
    let* git_rev = str_field "git_rev" j in
    let* host = str_field "host" j in
    let* quick = bool_field "quick" j in
    let* created_ns = int_field "created_ns" j in
    let* kernels_json = field "kernels" j in
    let* kernel_list =
      match kernels_json with
      | J.List l -> Ok l
      | _ -> Error "kernels is not a list"
    in
    let* kernels = map_result kernel_of_json kernel_list in
    Ok { meta = { suite; git_rev; host; quick; created_ns }; kernels }

(* ---- file I/O ---- *)

(* Write-then-rename: a crash mid-save leaves the old baseline intact
   instead of a truncated JSON file that the gate would then reject. *)
let save ~dir t =
  let path = Filename.concat dir (filename ~suite:t.meta.suite) in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (* one kernel per line: diffable under git, still plain JSON *)
  (match to_json t with
  | J.Obj fields ->
    output_string oc "{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then output_string oc ",";
        output_string oc "\n  ";
        match v with
        | J.List items ->
          output_string oc (Printf.sprintf "%S: [" k);
          List.iteri
            (fun i item ->
              if i > 0 then output_string oc ",";
              output_string oc ("\n    " ^ J.to_string item))
            items;
          output_string oc "\n  ]"
        | v -> output_string oc (Printf.sprintf "%S: %s" k (J.to_string v)))
      fields;
    output_string oc "\n}\n"
  | j -> output_string oc (J.to_string j));
  flush oc;
  close_out oc;
  Sys.rename tmp path;
  path

let load path =
  if not (Sys.file_exists path) then Error ("no such file: " ^ path)
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    match J.parse contents with
    | None -> Error ("invalid JSON in " ^ path)
    | Some j -> ( match of_json j with Ok t -> Ok t | Error e -> Error (path ^ ": " ^ e))
  end
