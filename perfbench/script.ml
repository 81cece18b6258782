(* The request scripts of the daemon workloads: fixed, seeded op lists
   (never time windows), each request tagged with the class its latency
   is pooled into.  The daemon sees only the protocol lines.

   A script tracks its own fault set, so each request carries the reply
   that set predicts wherever it can (every alive? and apply, and a
   certificate? on a faulty node): an oracle that does not run the
   engine the daemon runs. *)

module Rng = Fn_prng.Rng
module Bitset = Fn_graph.Bitset

let spec = "itorus:1000x1000"
let n = 1_000_000

type cls =
  | Query  (** alive? / certificate? answered from current state *)
  | Cascade  (** the first certificate? after an apply: pays the lazy cascade *)
  | Apply  (** an apply batch *)
  | Compacting  (** an apply batch whose reply waits for a journal compaction *)

type req = {
  line : string;
  cls : cls;
  expect : string option;  (** the reply the script's fault set predicts *)
}

type t = {
  reqs : req array;
  faulty : Bitset.t;  (** the fault set after the last request *)
}

(* Builds a script while keeping its fault set current. *)
type builder = { faulty_now : Bitset.t; mutable down : int; mutable out : req list }

let builder () = { faulty_now = Bitset.create n; down = 0; out = [] }
let push b line cls expect = b.out <- { line; cls; expect } :: b.out
let finish b = { reqs = Array.of_list (List.rev b.out); faulty = b.faulty_now }

let apply b cls faults repairs =
  let l = Buffer.create 4096 in
  Buffer.add_string l "apply";
  Array.iter (fun v -> Buffer.add_string l (Printf.sprintf " f%d" v)) faults;
  Array.iter (fun v -> Buffer.add_string l (Printf.sprintf " r%d" v)) repairs;
  Array.iter (Bitset.add b.faulty_now) faults;
  Array.iter (Bitset.remove b.faulty_now) repairs;
  b.down <- b.down + Array.length faults - Array.length repairs;
  let events = Array.length faults + Array.length repairs in
  push b (Buffer.contents l) cls
    (Some (Printf.sprintf "ok applied=%d alive=%d" events (n - b.down)))

let alive b v =
  push b (Printf.sprintf "alive? %d" v) Query
    (Some ("ok " ^ string_of_bool (not (Bitset.mem b.faulty_now v))))

(* A faulty node is never in the certificate; for a live one only the
   replay knows the answer. *)
let certificate b cls v =
  push b (Printf.sprintf "certificate? %d" v) cls
    (if Bitset.mem b.faulty_now v then Some "ok false" else None)

(* serve: each cycle is reversible — apply 16 faults at targets spaced
   one per n/16 stripe, 64 point queries alternating alive? and
   certificate?, repair the same 16, 64 more queries.  Every other
   pair of queries asks about one of the cycle's targets, so both
   answers of alive? occur. *)
let serve_faults = 16
let serve_queries = 64

let serve ~seed ~cycles =
  let rng = Rng.create seed in
  let b = builder () in
  let queries targets =
    for q = 0 to serve_queries - 1 do
      let v = if q land 2 = 0 then targets.(Rng.int rng serve_faults) else Rng.int rng n in
      if q land 1 = 0 then alive b v else certificate b (if q = 1 then Cascade else Query) v
    done
  in
  let stripe = n / serve_faults in
  for _ = 1 to cycles do
    let targets = Array.init serve_faults (fun j -> (j * stripe) + Rng.int rng stripe) in
    apply b Apply targets [||];
    queries targets;
    apply b Apply [||] targets;
    queries targets
  done;
  finish b

(* ingest: a sliding window of churn.  Batch i faults 128 fresh nodes
   and repairs the 128 faulted at batch i-8, so 1024 nodes stay faulty
   and the mask is new on every batch; one certificate? per batch
   forces the cascade, on every other batch about one of its fresh
   faults.  Every [compact_every]-th batch's reply waits for the
   daemon's compaction. *)
let ingest_fresh = 128
let ingest_window = 8
let compact_every = 250

(* A whole number of compaction periods plus half of one, so the timed
   phase (and the journal it leaves) ends mid-way between two
   compactions. *)
let ingest_batches ~seconds = (compact_every * max 1 (seconds * 3 / 10)) + (compact_every / 2)

let ingest ~seed ~batches =
  let rng = Rng.create seed in
  let b = builder () in
  let history = Array.make batches [||] in
  for i = 0 to batches - 1 do
    let fresh = Array.make ingest_fresh 0 in
    let k = ref 0 in
    while !k < ingest_fresh do
      let v = Rng.int rng n in
      if not (Bitset.mem b.faulty_now v) then begin
        Bitset.add b.faulty_now v;
        fresh.(!k) <- v;
        incr k
      end
    done;
    let repairs = if i >= ingest_window then history.(i - ingest_window) else [||] in
    history.(i) <- fresh;
    apply b (if (i + 1) mod compact_every = 0 then Compacting else Apply) fresh repairs;
    certificate b Cascade (if i land 1 = 0 then Rng.int rng n else fresh.(Rng.int rng ingest_fresh))
  done;
  finish b
