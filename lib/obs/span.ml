type t = { sink : Sink.t; id : int; parent : int; name : string }

let null = { sink = Sink.null; id = -1; parent = -1; name = "" }

(* Nesting is tracked per domain: each domain sees its own stack of
   open span ids, so spans opened inside Par workers nest correctly
   without cross-domain interference. *)
let stack_key = Domain.DLS.new_key (fun () -> ref [])

let current_parent () =
  match !(Domain.DLS.get stack_key) with [] -> -1 | id :: _ -> id

let enter ?(fields = []) sink name =
  if not (Sink.enabled sink) then null
  else begin
    let id = Sink.next_id sink in
    let parent = current_parent () in
    let stack = Domain.DLS.get stack_key in
    stack := id :: !stack;
    Sink.emit sink
      { Sink.ts_ns = Clock.now_ns (); kind = Sink.Enter; name; id; parent; fields };
    { sink; id; parent; name }
  end

let exit ?(fields = []) t =
  if Sink.enabled t.sink then begin
    let stack = Domain.DLS.get stack_key in
    (match !stack with
    | id :: rest when id = t.id -> stack := rest
    | _ -> ());
    Sink.emit t.sink
      {
        Sink.ts_ns = Clock.now_ns ();
        kind = Sink.Exit;
        name = t.name;
        id = t.id;
        parent = t.parent;
        fields;
      }
  end

let instant ?(fields = []) sink name =
  if Sink.enabled sink then
    Sink.emit sink
      {
        Sink.ts_ns = Clock.now_ns ();
        kind = Sink.Instant;
        name;
        id = -1;
        parent = current_parent ();
        fields;
      }
