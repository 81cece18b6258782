type value = Bool of bool | Int of int | Float of float | Str of string

type kind = Enter | Exit | Instant

type event = {
  ts_ns : int;
  kind : kind;
  name : string;
  id : int;
  parent : int;
  fields : (string * value) list;
}

type active = {
  write : event -> unit;
  close_fn : unit -> (unit, string) result;
  next : int Atomic.t;
}

type t = Null | Active of active

let null = Null

let enabled = function Null -> false | Active _ -> true

let next_id = function Null -> -1 | Active a -> Atomic.fetch_and_add a.next 1

let emit t ev = match t with Null -> () | Active a -> a.write ev

let close = function Null -> Ok () | Active a -> a.close_fn ()

let kind_to_string = function Enter -> "enter" | Exit -> "exit" | Instant -> "event"

let json_of_value = function
  | Bool b -> Jsonx.Bool b
  | Int i -> Jsonx.Int i
  | Float v -> Jsonx.Float v
  | Str s -> Jsonx.Str s

let json_of_event ev =
  Jsonx.Obj
    [
      ("ts", Jsonx.Int ev.ts_ns);
      ("kind", Jsonx.Str (kind_to_string ev.kind));
      ("name", Jsonx.Str ev.name);
      ("id", Jsonx.Int ev.id);
      ("parent", if ev.parent < 0 then Jsonx.Null else Jsonx.Int ev.parent);
      ("fields", Jsonx.Obj (List.map (fun (k, v) -> (k, json_of_value v)) ev.fields));
    ]

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Events may arrive concurrently from Par domains; one mutex
   serializes lines so the JSONL stays well-formed.  A failed write (a
   full disk) must not raise into the instrumented kernel: it stops the
   trace, later events are dropped, and [close] reports the first
   failure. *)
let jsonl_file path =
  let oc = open_out path in
  let lock = Mutex.create () in
  let failed = ref None in
  let guard f =
    if !failed = None then
      match f () with () -> () | exception Sys_error m -> failed := Some m
  in
  let write ev =
    with_lock lock (fun () ->
        guard (fun () ->
            output_string oc (Jsonx.to_string (json_of_event ev));
            output_char oc '\n'))
  in
  let close_fn () =
    with_lock lock (fun () ->
        guard (fun () -> close_out oc);
        close_out_noerr oc;
        match !failed with
        | None -> Ok ()
        | Some m -> Error (Printf.sprintf "trace %s not written: %s" path m))
  in
  Active { write; close_fn; next = Atomic.make 0 }

let discard () =
  Active { write = ignore; close_fn = (fun () -> Ok ()); next = Atomic.make 0 }

let of_flags ~trace ~metrics =
  match trace with
  | Some path -> (
      match jsonl_file path with
      | sink -> Ok sink
      | exception Sys_error m -> Error ("cannot open trace: " ^ m))
  | None -> Ok (if metrics then discard () else null)

let memory () =
  let lock = Mutex.create () in
  let events = ref [] in
  let sink =
    Active
      {
        write = (fun ev -> with_lock lock (fun () -> events := ev :: !events));
        close_fn = (fun () -> Ok ());
        next = Atomic.make 0;
      }
  in
  (sink, fun () -> with_lock lock (fun () -> List.rev !events))
