(* A faultnetd subprocess behind its stdin/stdout pipe, driven one
   request at a time (closed loop, one client).  The daemon inherits the
   benchmark's CPU affinity, and run.py pins the benchmark to one CPU:
   client and daemon on different CPUs nearly tripled the point-query
   p50 on a 2-vCPU VM. *)

type t = {
  pid : int;
  to_d : Unix.file_descr;
  from_d : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

(* Daemons not yet reaped; killed at exit, so no run leaves one behind. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 4

let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        live)

let spawn ~exe args =
  let d_in, to_d = Unix.pipe ~cloexec:true () in
  let from_d, d_out = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) d_in d_out Unix.stderr in
  Hashtbl.replace live pid ();
  Unix.close d_in;
  Unix.close d_out;
  { pid; to_d; from_d; buf = Bytes.create 65536; pos = 0; len = 0 }

let rec write_all fd b off len =
  if len > 0 then begin
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)
  end

(* The first newline among the buffered bytes [pos, pos + len).  The
   search stops there: past it the buffer holds stale bytes, and a scan
   to the end of the 64 KiB buffer would cost tens of microseconds. *)
let newline t =
  let stop = t.pos + t.len in
  let rec go i = if i >= stop then None else if Bytes.get t.buf i = '\n' then Some i else go (i + 1) in
  go t.pos

let read_line t =
  let rec go acc =
    match newline t with
    | Some i ->
      let piece = Bytes.sub_string t.buf t.pos (i - t.pos) in
      t.len <- t.len - (i + 1 - t.pos);
      t.pos <- i + 1;
      acc ^ piece
    | _ ->
      let acc = acc ^ Bytes.sub_string t.buf t.pos t.len in
      t.pos <- 0;
      t.len <- 0;
      let k = Unix.read t.from_d t.buf 0 (Bytes.length t.buf) in
      if k = 0 then raise End_of_file;
      t.len <- k;
      go acc
  in
  go ""

(* Send one line, wait for its one-line reply. *)
let request t line =
  let b = Bytes.of_string (line ^ "\n") in
  write_all t.to_d b 0 (Bytes.length b);
  read_line t

let reap t =
  (try Unix.close t.to_d with Unix.Unix_error _ -> ());
  (try Unix.close t.from_d with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  Hashtbl.remove live t.pid

(* Orderly shutdown: [quit], then wait for the process to end. *)
let quit t =
  (try ignore (request t "quit") with End_of_file | Unix.Unix_error _ -> ());
  reap t

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap t

let vmhwm_mb t = Meter.vmhwm_mb (string_of_int t.pid)

(* Spawn and wait for the first reply to [alive? 0] — a constant-time
   probe; [state?] would run a full alpha estimate.  Returns the client
   and the spawn-to-reply time in seconds. *)
let start ~exe args =
  let t0 = Meter.now_ns () in
  let c = spawn ~exe args in
  let reply = request c "alive? 0" in
  let s = Meter.elapsed_s t0 in
  if not (String.length reply >= 2 && String.sub reply 0 2 = "ok") then begin
    kill c;
    failwith ("faultnetd did not come up: " ^ reply)
  end;
  (c, s)
