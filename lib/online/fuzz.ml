open Fn_graph
open Fn_prng

(* Grammar-aware deterministic fuzzing of the faultnetd line protocol.

   The generator knows the grammar well enough to be mean about it: it
   emits valid commands (so deep engine paths run), near-valid lines
   (off-by-one ids, mangled verbs, truncations), and outright hostile
   bytes (binary garbage, oversized lines and batches).  Everything is
   drawn from a seeded [Rng.t], so a failing seed is a reproducible
   regression and the corpus files under test/fixtures replay
   verbatim forever. *)

type report = {
  lines : int;
  ok : int;
  err : int;
  ignored : int;
  exceptions : (string * string) list;  (** (line, Printexc.to_string) — must be [] *)
  violations : string list;  (** lines whose non-[ok] reply changed engine state *)
}

let weird_ids = [| "-1"; "-999999999"; "4611686018427387903"; "0x7f"; "1e9"; "NaN"; ""; "1_7" |]

let verbs =
  [| "alive?"; "certificate?"; "alpha?"; "apply"; "stats?"; "audit!"; "state?"; "quit" |]

let valid_command rng ~n =
  match Rng.int rng 8 with
  | 0 -> Protocol.render (Protocol.Alive (Rng.int rng n))
  | 1 -> Protocol.render (Protocol.Certificate (Rng.int rng n))
  | 2 -> Protocol.render Protocol.Alpha
  | 3 -> Protocol.render Protocol.Stats
  | 4 -> Protocol.render Protocol.State
  | 5 -> Protocol.render Protocol.Audit
  | 6 ->
    let k = 1 + Rng.int rng 4 in
    let evs =
      List.init k (fun _ ->
          let v = Rng.int rng n in
          if Rng.bool rng then Event.Fault v else Event.Repair v)
    in
    Protocol.render (Protocol.Apply evs)
  | _ -> "# comment " ^ string_of_int (Rng.int rng 1000)

(* Near-valid: right shape, wrong content — the inputs that slip past
   naive parsers. *)
let adversarial rng ~n =
  match Rng.int rng 7 with
  | 0 -> "alive? " ^ Rng.choose rng weird_ids
  | 1 -> "certificate? " ^ string_of_int (n + Rng.int rng 1000)
  | 2 ->
    let tok =
      match Rng.int rng 4 with
      | 0 -> "f" ^ Rng.choose rng weird_ids
      | 1 -> "r" ^ string_of_int (n + Rng.int rng 100)
      | 2 -> "x" ^ string_of_int (Rng.int rng n)
      | _ -> "f"
    in
    "apply " ^ tok
  | 3 -> "apply"
  | 4 -> Rng.choose rng verbs ^ " " ^ Rng.choose rng verbs
  | 5 -> String.uppercase_ascii (Rng.choose rng verbs)
  | _ -> "  apply  f0  f0  r0  extra  "

let mutate rng line =
  let b = Bytes.of_string line in
  let len = Bytes.length b in
  if len = 0 then "?"
  else
    match Rng.int rng 3 with
    | 0 ->
      Bytes.set b (Rng.int rng len) (Char.chr (Rng.int rng 256));
      Bytes.to_string b
    | 1 -> Bytes.sub_string b 0 (Rng.int rng len)
    | _ -> line ^ String.make 1 (Char.chr (Rng.int rng 256))

let random_bytes rng =
  String.init (1 + Rng.int rng 40) (fun _ -> Char.chr (Rng.int rng 256))

let oversized rng (limits : Protocol.limits) ~n =
  if Rng.bool rng then String.make (limits.Protocol.max_line_bytes + 1) 'a'
  else
    (* one past the batch limit, every event individually valid *)
    let k = limits.Protocol.max_batch_events + 1 in
    let buf = Buffer.create (4 * k) in
    Buffer.add_string buf "apply";
    for _ = 1 to k do
      Buffer.add_string buf " f";
      Buffer.add_string buf (string_of_int (Rng.int rng n))
    done;
    Buffer.contents buf

let line rng ~limits ~n =
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> valid_command rng ~n
  | 4 | 5 -> adversarial rng ~n
  | 6 | 7 -> mutate rng (valid_command rng ~n)
  | 8 -> random_bytes rng
  | _ -> oversized rng limits ~n

(* Cheap fingerprint of the {e replayable} engine state — fault mask
   and accepted-batch counters.  Process-local stats (rejections,
   degraded answers) may move on [err] replies; the invariant under
   test is that the replayable state never does. *)
let fingerprint engine =
  let h = ref 0xcbf29ce484222325L in
  let mix i = h := Int64.mul (Int64.logxor !h (Int64.of_int i)) 0x100000001b3L in
  Bitset.iter mix (Engine.faulty_mask engine);
  mix (-1);
  let s = Engine.stats engine in
  mix s.Engine.events;
  mix s.Engine.batches;
  !h

let run ?(limits = Protocol.default_limits) engine ~seed ~count =
  let rng = Rng.create seed in
  let ok = ref 0 and err = ref 0 and ignored = ref 0 in
  let exceptions = ref [] and violations = ref [] in
  for _ = 1 to count do
    let l = line rng ~limits ~n:(Engine.universe engine) in
    let before = fingerprint engine in
    match Server.handle ~limits engine l with
    | exception e -> exceptions := (l, Printexc.to_string e) :: !exceptions
    | out -> (
      let after = fingerprint engine in
      match out.Server.reply with
      | None ->
        incr ignored;
        if not (Int64.equal before after) then violations := l :: !violations
      | Some r ->
        let is_ok = String.length r >= 2 && String.sub r 0 2 = "ok" in
        if is_ok then incr ok
        else begin
          incr err;
          if not (Int64.equal before after) then violations := l :: !violations
        end)
  done;
  {
    lines = count;
    ok = !ok;
    err = !err;
    ignored = !ignored;
    exceptions = List.rev !exceptions;
    violations = List.rev !violations;
  }

let clean r = r.exceptions = [] && r.violations = []

let replay ?(limits = Protocol.default_limits) engine lines =
  let exceptions = ref [] in
  List.iter
    (fun l ->
      match Server.handle ~limits engine l with
      | exception e -> exceptions := (l, Printexc.to_string e) :: !exceptions
      | (_ : Server.outcome) -> ())
    lines;
  List.rev !exceptions
