module J = Fn_obs.Jsonx

type t = {
  path : string;
  mutable oc : out_channel;
  lock : Mutex.t;
  meta_json : J.t; (* the governing header line, kept for compaction rewrites *)
  trials : (string * int, J.t) Hashtbl.t;
  snapshots : (string, int * J.t) Hashtbl.t;
  outcomes : (string, J.t) Hashtbl.t;
  recovered : int;
  torn : int;
}

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Classify one journal line.  Anything that does not parse into a
   known shape is "torn" — most likely the tail of a line cut short by
   a kill — and is skipped rather than treated as fatal. *)
type line =
  | Meta of J.t
  | Trial of string * int * J.t
  | Snapshot of string * int * J.t
  | Outcome of string * J.t
  | Torn

let classify line =
  match J.parse line with
  | None -> Torn
  | Some json -> (
    match J.member "kind" json with
    | Some (J.Str "meta") -> Meta json
    | Some (J.Str "trial") -> (
      match (J.member "scope" json, J.member "index" json, J.member "value" json) with
      | Some (J.Str scope), Some (J.Int index), Some value -> Trial (scope, index, value)
      | _ -> Torn)
    | Some (J.Str "snapshot") -> (
      match (J.member "scope" json, J.member "upto" json, J.member "value" json) with
      | Some (J.Str scope), Some (J.Int upto), Some value -> Snapshot (scope, upto, value)
      | _ -> Torn)
    | Some (J.Str "outcome") -> (
      match (J.member "id" json, J.member "value" json) with
      | Some (J.Str id), Some value -> Outcome (id, value)
      | _ -> Torn)
    | _ -> Torn)

(* A file killed mid-write ends without a newline; appending straight
   after would glue the next record onto the torn fragment. *)
let ends_with_newline path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      len = 0
      ||
      (seek_in ic (len - 1);
       input_char ic = '\n'))

let meta_line meta =
  J.to_string (J.Obj (("kind", J.Str "meta") :: ("version", J.Int 1) :: meta))

(* The stored header must agree with the requested binding on every
   requested key; extra informational fields in the header are fine.
   The refusal lists every divergent binding with both sides — when a
   resume is refused over one of seed/topology/alpha/epsilon/mode, the
   operator sees the whole diff, not just the first offending key. *)
let check_meta ~requested stored =
  let mismatches =
    List.filter_map
      (fun (key, want) ->
        let got =
          match J.member key stored with
          | Some got -> J.to_string got
          | None -> "nothing"
        in
        if String.equal got (J.to_string want) then None
        else Some (Printf.sprintf "%s: journal has %s, run has %s" key got (J.to_string want)))
      requested
  in
  match mismatches with
  | [] -> Ok ()
  | _ :: _ ->
    Error ("journal meta mismatch — " ^ String.concat "; " mismatches)

(* Where [compact] stages its rewrite.  A process killed between the
   tmp write and the rename leaves this file behind; [open_] discards
   it, so the old journal — still complete — governs recovery. *)
let compact_tmp_path path = path ^ ".compact.tmp"

let open_ ~path ~meta =
  let trials = Hashtbl.create 64 in
  let snapshots = Hashtbl.create 4 in
  let outcomes = Hashtbl.create 16 in
  (* a stale compaction staging file is an aborted rewrite, never state *)
  if Sys.file_exists (compact_tmp_path path) then Sys.remove (compact_tmp_path path);
  let lines = if Sys.file_exists path then read_lines path else [] in
  let classified = List.map classify lines in
  let torn =
    List.length (List.filter (function Torn -> true | _ -> false) classified)
  in
  let recovered = ref 0 in
  let meta_check =
    List.fold_left
      (fun acc l ->
        match (acc, l) with
        | Error _, _ -> acc
        | Ok _, Meta stored -> check_meta ~requested:meta stored
        | Ok _, Trial (scope, index, value) ->
          incr recovered;
          Hashtbl.replace trials (scope, index) value;
          acc
        | Ok _, Snapshot (scope, upto, value) ->
          incr recovered;
          Hashtbl.replace snapshots scope (upto, value);
          acc
        | Ok _, Outcome (id, value) ->
          incr recovered;
          Hashtbl.replace outcomes id value;
          acc
        | Ok _, Torn -> acc)
      (Ok ()) classified
  in
  match meta_check with
  | Error _ as e -> e
  | Ok () ->
    let has_meta = List.exists (function Meta _ -> true | _ -> false) classified in
    if (not has_meta) && lines <> [] && torn < List.length lines then
      Error (Printf.sprintf "journal %s has records but no meta header" path)
    else begin
      let fresh = not has_meta in
      let needs_newline = (not fresh) && not (ends_with_newline path) in
      let oc =
        if fresh then open_out_gen [ Open_wronly; Open_trunc; Open_creat ] 0o644 path
        else open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
      in
      if fresh then begin
        output_string oc (meta_line meta);
        output_char oc '\n';
        flush oc
      end
      else if needs_newline then begin
        (* terminate the torn tail so the next record starts clean *)
        output_char oc '\n';
        flush oc
      end;
      let meta_json =
        if fresh then
          match J.parse (meta_line meta) with Some j -> j | None -> J.Obj []
        else
          match List.find_opt (function Meta _ -> true | _ -> false) classified with
          | Some (Meta stored) -> stored
          | _ -> J.Obj []
      in
      Ok
        {
          path;
          oc;
          lock = Mutex.create ();
          meta_json;
          trials;
          snapshots;
          outcomes;
          recovered = !recovered;
          torn;
        }
    end

let append t json =
  with_lock t.lock (fun () ->
      output_string t.oc (J.to_string json);
      output_char t.oc '\n';
      flush t.oc)

let trial_record ~scope ~index value =
  J.Obj
    [
      ("kind", J.Str "trial");
      ("scope", J.Str scope);
      ("index", J.Int index);
      ("value", value);
    ]

let outcome_record ~id value =
  J.Obj [ ("kind", J.Str "outcome"); ("id", J.Str id); ("value", value) ]

let record_trial t ~scope ~index value =
  with_lock t.lock (fun () -> Hashtbl.replace t.trials (scope, index) value);
  append t (trial_record ~scope ~index value)

let find_trial t ~scope ~index =
  with_lock t.lock (fun () -> Hashtbl.find_opt t.trials (scope, index))

let snapshot_record ~scope ~upto value =
  J.Obj
    [
      ("kind", J.Str "snapshot");
      ("scope", J.Str scope);
      ("upto", J.Int upto);
      ("value", value);
    ]

let find_snapshot t ~scope = with_lock t.lock (fun () -> Hashtbl.find_opt t.snapshots scope)

(* Rewrite the journal as [meta header; snapshot; suffix records]:
   trials of [scope] below [upto] are summarized by [snapshot] and
   dropped, everything else is retained.  The rewrite is staged in
   [compact_tmp_path] and installed with one atomic rename — a kill at
   any point leaves either the old journal (tmp discarded on next
   open) or the new one, never a torn hybrid.  Retained records are
   sorted (scope, then index / id), so the rewritten file is a
   deterministic function of the journal's contents.

   [on_tmp_written] is a test-only fault-injection point: it runs
   after the staged file is complete and before the rename, exactly
   where a SIGKILL would separate the two. *)
let compact ?(on_tmp_written = fun () -> ()) t ~scope ~upto ~snapshot =
  with_lock t.lock (fun () ->
      let tmp = compact_tmp_path t.path in
      match
        let oc' = open_out_gen [ Open_wronly; Open_trunc; Open_creat ] 0o644 tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc')
          (fun () ->
            let put json =
              output_string oc' (J.to_string json);
              output_char oc' '\n'
            in
            put t.meta_json;
            let snaps =
              Hashtbl.fold
                (fun sc sv acc -> if String.equal sc scope then acc else (sc, sv) :: acc)
                t.snapshots []
            in
            let snaps = (scope, (upto, snapshot)) :: snaps in
            List.iter
              (fun (sc, (k, v)) -> put (snapshot_record ~scope:sc ~upto:k v))
              (List.sort (fun (a, _) (b, _) -> String.compare a b) snaps);
            let keep =
              Hashtbl.fold
                (fun (sc, i) v acc ->
                  if String.equal sc scope && i < upto then acc else ((sc, i), v) :: acc)
                t.trials []
            in
            List.iter
              (fun ((sc, i), v) -> put (trial_record ~scope:sc ~index:i v))
              (List.sort
                 (fun ((sa, ia), _) ((sb, ib), _) ->
                   match String.compare sa sb with 0 -> Int.compare ia ib | c -> c)
                 keep);
            let outs = Hashtbl.fold (fun id v acc -> (id, v) :: acc) t.outcomes [] in
            List.iter
              (fun (id, v) -> put (outcome_record ~id v))
              (List.sort (fun (a, _) (b, _) -> String.compare a b) outs);
            flush oc')
      with
      | exception Sys_error m -> Error ("journal compaction failed: " ^ m)
      | () -> (
        on_tmp_written ();
        match Sys.rename tmp t.path with
        | exception Sys_error m -> Error ("journal compaction rename failed: " ^ m)
        | () ->
          (* the old channel still points at the replaced inode *)
          close_out_noerr t.oc;
          t.oc <- open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 t.path;
          Hashtbl.iter
            (fun (sc, i) _ ->
              if String.equal sc scope && i < upto then Hashtbl.remove t.trials (sc, i))
            (Hashtbl.copy t.trials);
          Hashtbl.replace t.snapshots scope (upto, snapshot);
          Ok ()))

let record_outcome t ~id value =
  with_lock t.lock (fun () -> Hashtbl.replace t.outcomes id value);
  append t (outcome_record ~id value)

let find_outcome t ~id = with_lock t.lock (fun () -> Hashtbl.find_opt t.outcomes id)
let recovered t = t.recovered
let torn t = t.torn

let close t =
  with_lock t.lock (fun () ->
      flush t.oc;
      close_out_noerr t.oc)
