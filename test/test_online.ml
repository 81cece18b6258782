(* Fn_online: the incremental-equals-scratch differential invariant,
   the delta-BFS surveys, batch rejection atomicity, the history-free
   alpha cache, audit quarantine, the line protocol, and daemon
   kill-and-resume byte-identity through the faultnetd binary,
   including a journal an earlier build wrote. *)

open Fn_graph
open Testutil
module Event = Fn_online.Event
module Delta_bfs = Fn_online.Delta_bfs
module Dirty = Fn_online.Dirty
module Cert = Fn_online.Cert
module Alpha_cache = Fn_online.Alpha_cache
module Engine = Fn_online.Engine
module Protocol = Fn_online.Protocol
module Server = Fn_online.Server

let rng () = Fn_prng.Rng.create 0x0417

(* ------------------------------------------------------------------ *)
(* Dirty tracker                                                       *)
(* ------------------------------------------------------------------ *)

let test_dirty_basics () =
  let d = Dirty.create 10 in
  let mem v =
    let hit = ref false in
    Dirty.iter d (fun u -> if u = v then hit := true);
    !hit
  in
  check_bool "clean" false (mem 3);
  Dirty.mark d 3;
  Dirty.mark d 7;
  Dirty.mark d 3;
  check_bool "marked" true (mem 3);
  check_int "deduplicated" 2 (Dirty.count d);
  let seen = ref [] in
  Dirty.iter d (fun v -> seen := v :: !seen);
  check_int "iter covers marks" 2 (List.length !seen);
  Dirty.next_generation d;
  check_bool "cleared" false (mem 3);
  check_int "count reset" 0 (Dirty.count d);
  check_int "peak persists" 2 (Dirty.peak d);
  Alcotest.check_raises "out of range" (Invalid_argument "Dirty.mark: node out of range")
    (fun () -> Dirty.mark d 10)

(* ------------------------------------------------------------------ *)
(* Delta_bfs vs a naive reference                                      *)
(* ------------------------------------------------------------------ *)

let naive_survey view ~alive ~radius src =
  let n = Gview.num_nodes view in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Gview.iter_neighbors view u (fun v ->
        if dist.(v) < 0 && Bitset.mem alive v then begin
          dist.(v) <- dist.(u) + 1;
          if dist.(v) <= radius then Queue.add v q
        end)
  done;
  let s = ref 0 and b = ref 0 and ball = Bitset.create n in
  Array.iteri
    (fun v d ->
      if d >= 0 && d <= radius then begin
        incr s;
        Bitset.add ball v
      end
      else if d = radius + 1 then incr b)
    dist;
  (!s, !b, ball)

let random_mask r n keep =
  let m = Bitset.create n in
  for v = 0 to n - 1 do
    if Fn_prng.Rng.unit_float r < keep then Bitset.add m v
  done;
  m

let test_survey_matches_naive () =
  let r = rng () in
  let views =
    [
      Gview.Csr (fst (Fn_topology.Mesh.cube ~d:2 ~side:7));
      Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:6));
      Fn_topology.Implicit.torus [| 5; 7 |];
    ]
  in
  List.iter
    (fun view ->
      let n = Gview.num_nodes view in
      let bfs = Delta_bfs.create view in
      for _ = 1 to 20 do
        let alive = random_mask r n 0.8 in
        match Bitset.choose alive with
        | None -> ()
        | Some src ->
          let radius = 1 + Fn_prng.Rng.int r 3 in
          let ball = Bitset.create n in
          let s, b = Delta_bfs.survey bfs ~alive ~into:ball ~radius src in
          let s', b', ball' = naive_survey view ~alive ~radius src in
          check_int "s" s' s;
          check_int "b" b' b;
          check_bool "ball" true (Bitset.equal ball' ball)
      done)
    views

let test_survey_boundary_is_prune_boundary () =
  (* the surveyed (s, b) must be exactly the |S| and |Gamma(S)| Prune
     measures on the same ball *)
  let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:8)) in
  let n = Gview.num_nodes view in
  let r = rng () in
  let bfs = Delta_bfs.create view in
  for _ = 1 to 20 do
    let alive = random_mask r n 0.85 in
    match Bitset.choose alive with
    | None -> ()
    | Some src ->
      let ball = Bitset.create n in
      let s, b = Delta_bfs.survey bfs ~alive ~into:ball ~radius:2 src in
      check_int "size" (Bitset.cardinal ball) s;
      check_int "boundary" (Boundary.node_boundary_size ~alive view ball) b
  done

let test_region_marks_neighborhood () =
  let g, _ = Fn_topology.Mesh.cube ~d:2 ~side:8 in
  let view = Gview.Csr g in
  let bfs = Delta_bfs.create view in
  let seen = Hashtbl.create 64 in
  Delta_bfs.region bfs ~radius:2 ~sources:[ 0; 63 ] (fun v ->
      check_bool "no duplicates" false (Hashtbl.mem seen v);
      Hashtbl.replace seen v ());
  (* unrestricted distance <= 2 of corner 0 (row-major 8x8): 6 nodes,
     same for corner 63, disjoint *)
  check_int "region size" 12 (Hashtbl.length seen);
  check_bool "source in" true (Hashtbl.mem seen 0);
  check_bool "dist 2 in" true (Hashtbl.mem seen 2);
  check_bool "dist 3 out" false (Hashtbl.mem seen 3)

(* ------------------------------------------------------------------ *)
(* The differential invariant: incremental == from-scratch             *)
(* ------------------------------------------------------------------ *)

let result_equal (a : Faultnet.Prune.result) (b : Faultnet.Prune.result) =
  Bitset.equal a.kept b.kept
  && a.iterations = b.iterations
  && Float.equal a.threshold b.threshold
  && List.length a.culled = List.length b.culled
  && List.for_all2
       (fun (x : Faultnet.Prune.culled) (y : Faultnet.Prune.culled) ->
         x.size = y.size && x.boundary = y.boundary && Bitset.equal x.set y.set)
       a.culled b.culled

(* Random valid batch against the engine's current fault mask: faults
   of alive nodes, repairs of faulty ones. *)
let random_batch r engine k =
  let faulty = Engine.faulty_mask engine in
  let alive = Engine.alive_mask engine in
  let pick m =
    let a = Bitset.to_array m in
    if Array.length a = 0 then None else Some a.(Fn_prng.Rng.int r (Array.length a))
  in
  let out = ref [] in
  let used = Hashtbl.create 8 in
  for _ = 1 to k do
    let repair = Fn_prng.Rng.unit_float r < 0.4 in
    let cand = if repair then pick faulty else pick alive in
    match cand with
    | Some v when not (Hashtbl.mem used v) ->
      Hashtbl.replace used v ();
      (* keep the mirrors current so later picks stay valid *)
      if repair then begin
        Bitset.remove faulty v;
        Bitset.add alive v;
        out := Event.Repair v :: !out
      end
      else begin
        Bitset.add faulty v;
        Bitset.remove alive v;
        out := Event.Fault v :: !out
      end
    | _ -> ()
  done;
  List.rev !out

let check_differential view ~alpha ~epsilon ~batches ~batch_size =
  let r = rng () in
  let cfg = { Engine.default_config with Engine.alpha; epsilon; seed = 99 } in
  let engine = Engine.create ~cfg view in
  for i = 1 to batches do
    let batch = random_batch r engine batch_size in
    (match Engine.apply engine batch with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "valid batch rejected: %s" (Fn_faults.Churn.error_to_string e));
    let mask = Engine.alive_mask engine in
    let scratch = Cert.scratch ~radius:2 view ~alive:mask ~alpha ~epsilon in
    check_bool
      (Printf.sprintf "batch %d: incremental result equals scratch" i)
      true
      (result_equal (Engine.result engine) scratch);
    let a_inc = Engine.alpha engine in
    let a_ref = Alpha_cache.reference ~seed:99 view ~kept:scratch.Faultnet.Prune.kept in
    check_bool
      (Printf.sprintf "batch %d: alpha byte-equal" i)
      true
      (Int64.equal (Int64.bits_of_float a_inc) (Int64.bits_of_float a_ref))
  done;
  let rep = Engine.audit engine in
  check_int "final audit clean" 0 rep.Engine.faults

let test_differential_mesh () =
  let view = Gview.Csr (fst (Fn_topology.Mesh.cube ~d:2 ~side:8)) in
  check_differential view ~alpha:1.0 ~epsilon:0.5 ~batches:12 ~batch_size:4

let test_differential_mesh_aggressive () =
  (* threshold 1.0: interior mesh balls qualify even fault-free, so
     the cascade itself (demotions, re-surveys mid-cull) is exercised
     hard from the first batch *)
  let view = Gview.Csr (fst (Fn_topology.Mesh.cube ~d:2 ~side:8)) in
  check_differential view ~alpha:2.0 ~epsilon:0.5 ~batches:8 ~batch_size:3

let test_differential_torus () =
  let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:6)) in
  check_differential view ~alpha:1.2 ~epsilon:0.5 ~batches:12 ~batch_size:4

let test_differential_implicit_torus () =
  let view = Fn_topology.Implicit.torus [| 8; 8 |] in
  check_differential view ~alpha:1.2 ~epsilon:0.5 ~batches:12 ~batch_size:4

let test_differential_expander () =
  let g = Fn_topology.Expander.random_regular (rng ()) ~n:64 ~d:4 in
  check_differential (Gview.Csr g) ~alpha:1.5 ~epsilon:0.6 ~batches:10 ~batch_size:5

let test_invalid_batch_is_atomic () =
  let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:6)) in
  let engine = Engine.create view in
  (match Engine.apply engine [ Event.Fault 1; Event.Fault 2 ] with
  | Ok k -> check_int "applied" 2 k
  | Error _ -> Alcotest.fail "valid batch rejected");
  let digest = Engine.state_digest engine in
  let expect_err evs =
    match Engine.apply engine evs with
    | Ok _ -> Alcotest.fail "invalid batch accepted"
    | Error _ -> ()
  in
  expect_err [ Event.Fault 1 ] (* already faulty *);
  expect_err [ Event.Repair 5 ] (* alive *);
  expect_err [ Event.Fault 99 ] (* out of range *);
  expect_err [ Event.Fault 5; Event.Repair 5 ] (* coalesces to repair-of-alive *);
  check_bool "state unchanged by rejected batches" true
    (String.equal digest (Engine.state_digest engine));
  check_int "rejections counted" 4 (Engine.stats engine).Engine.rejected

let test_coalescing_last_write_wins () =
  let view = Gview.Csr (fst (Fn_topology.Mesh.cube ~d:2 ~side:6)) in
  let engine = Engine.create view in
  (* f3 r3 f3 coalesces to the final f3 *)
  (match Engine.apply engine [ Event.Fault 3; Event.Repair 3; Event.Fault 3 ] with
  | Ok k -> check_int "coalesced to one event" 1 k
  | Error _ -> Alcotest.fail "coalescible batch rejected");
  check_bool "node 3 dead" false (Engine.is_alive engine 3);
  check_int "one event counted" 1 (Engine.stats engine).Engine.events

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The memo is a cache, not a source of values: every answer, hit or
   miss, is the reference of the mask asked about.  Misses are counted
   exactly once, the oldest of memo_cap = 8 masks is evicted, and the
   cache keeps its own copy of each mask, so a caller mutating its
   bitset afterwards cannot alias a stale answer onto the new mask. *)
let test_alpha_cache_memo () =
  let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:8)) in
  let seed = 5 in
  let n = Gview.num_nodes view in
  let reference kept = Alpha_cache.reference ~seed view ~kept in
  (* ten distinct masks: all alive, then one fault at node 7i *)
  let masks =
    Array.init 10 (fun i ->
        let m = Bitset.create_full n in
        if i > 0 then Bitset.remove m (7 * i);
        m)
  in
  let refs = Array.map reference masks in
  let c = Alpha_cache.create seed in
  let ask label kept expect ~computes =
    check_bool (label ^ ": equals reference") true
      (bits_equal (Alpha_cache.query c view ~kept) expect);
    check_int (label ^ ": computes") computes (Alpha_cache.computes c)
  in
  Array.iteri
    (fun i m -> ask (Printf.sprintf "first visit %d" i) m refs.(i) ~computes:(i + 1))
    masks;
  ask "repeat of the newest" masks.(9) refs.(9) ~computes:10;
  ask "memo hit" masks.(2) refs.(2) ~computes:10;
  ask "evicted mask recomputed" masks.(0) refs.(0) ~computes:11;
  let k = Bitset.copy masks.(3) in
  ask "copy of a memoised mask" k refs.(3) ~computes:11;
  Bitset.remove k 40;
  ask "caller mutated its mask" k (reference k) ~computes:12;
  let m = Bitset.copy masks.(0) in
  Bitset.remove m 50;
  let a = reference m in
  Alpha_cache.force c ~kept:m a;
  ask "forced value served" m a ~computes:12

(* The engine.mli determinism contract: asking alpha? moves only the
   counters of stats.  One engine is asked after every batch; at each
   step a fresh engine fed the same batches and asked only then must
   give the same alpha bits, state digest and snapshot. *)
let check_alpha_queries_move_no_answer view ~alpha ~epsilon =
  let cfg = { Engine.default_config with Engine.alpha; epsilon; seed = 11 } in
  let apply e batch =
    match Engine.apply e batch with
    | Ok _ -> ()
    | Error err -> Alcotest.failf "valid batch rejected: %s" (Fn_faults.Churn.error_to_string err)
  in
  let asked = Engine.create ~cfg view in
  let r = rng () in
  let history = ref [] in
  for i = 1 to 8 do
    let batch = random_batch r asked 3 in
    apply asked batch;
    history := batch :: !history;
    let a = Engine.alpha asked in
    let silent = Engine.create ~cfg view in
    List.iter (apply silent) (List.rev !history);
    let step what = Printf.sprintf "batch %d: %s" i what in
    check_bool (step "alpha bits equal") true (bits_equal a (Engine.alpha silent));
    Alcotest.(check string)
      (step "state digest") (Engine.state_digest silent) (Engine.state_digest asked);
    Alcotest.(check string)
      (step "snapshot")
      (Fn_obs.Jsonx.to_string (Engine.encode_state silent))
      (Fn_obs.Jsonx.to_string (Engine.encode_state asked));
    check_int (step "silent engine estimated once") 1
      (Engine.stats silent).Engine.alpha_computes
  done

let test_alpha_queries_move_no_answer () =
  let g = Fn_topology.Expander.random_regular (rng ()) ~n:64 ~d:4 in
  check_alpha_queries_move_no_answer (Gview.Csr g) ~alpha:1.5 ~epsilon:0.6;
  check_alpha_queries_move_no_answer (Fn_topology.Implicit.torus [| 8; 8 |]) ~alpha:1.2
    ~epsilon:0.5

(* ------------------------------------------------------------------ *)
(* Protocol and in-process server                                      *)
(* ------------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let cmds =
    [
      Protocol.Alive 3;
      Protocol.Certificate 0;
      Protocol.Alpha;
      Protocol.Apply [ Event.Fault 1; Event.Repair 2 ];
      Protocol.Stats;
      Protocol.Audit;
      Protocol.State;
      Protocol.Quit;
    ]
  in
  List.iter
    (fun c ->
      match Protocol.parse ~n:1000 (Protocol.render c) with
      | Ok (Some c') -> check_bool ("roundtrip " ^ Protocol.render c) true (c = c')
      | _ -> Alcotest.fail ("roundtrip failed: " ^ Protocol.render c))
    cmds;
  (match Protocol.parse ~n:1000 "  # comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment not ignored");
  (match Protocol.parse ~n:1000 "" with
  | Ok None -> ()
  | _ -> Alcotest.fail "blank not ignored");
  (match Protocol.parse ~n:1000 "alive? x" with
  | Error _ -> ()
  | _ -> Alcotest.fail "bad node id accepted");
  (match Protocol.parse ~n:1000 "apply f1 zap" with
  | Error _ -> ()
  | _ -> Alcotest.fail "bad token accepted");
  match Protocol.parse ~n:1000 "frobnicate" with
  | Error _ -> ()
  | _ -> Alcotest.fail "unknown command accepted"

(* Total parsing: every refusal is typed, node ids are validated at
   parse time, and the per-line / per-batch limits bite. *)
let test_protocol_hardening () =
  let code line =
    match Protocol.parse ~n:64 line with
    | Error e -> Protocol.error_code e
    | Ok (Some _) -> "(accepted)"
    | Ok None -> "(ignored)"
  in
  let check_code line want = Alcotest.(check string) line want (code line) in
  check_code "alive? 64" "bad-node";
  check_code "alive? -1" "bad-node";
  check_code "alive? 99999999999999999999999999" "bad-node";
  check_code "certificate? NaN" "bad-node";
  check_code "apply f64" "bad-node";
  check_code "apply r-3" "bad-node";
  check_code "apply f1 x2" "bad-event";
  check_code "apply" "bad-event";
  check_code "apply f" "bad-event";
  check_code "frobnicate 3" "bad-command";
  check_code "alive?" "bad-command";
  check_code "alive? 63" "(accepted)";
  check_code "apply f0 r63" "(accepted)";
  (* one spelling per id: OCaml literal forms and leading zeros are
     refused, not read as another node *)
  check_code "apply f0x10" "bad-event";
  check_code "apply f1_7" "bad-event";
  check_code "apply f007" "bad-event";
  check_code "apply f+9" "bad-event";
  check_code "apply r-0" "bad-event";
  check_code "alive? 0x12" "bad-node";
  check_code "alive? +3" "bad-node";
  check_code "alive? 007" "bad-node";
  check_code "certificate? 0b11" "bad-node";
  check_code "certificate? 0" "(accepted)";
  (* limits *)
  let tiny = { Protocol.max_line_bytes = 32; max_batch_events = 2 } in
  (match Protocol.parse ~limits:tiny ~n:64 (String.make 33 'a') with
  | Error (Protocol.Line_too_long 33) -> ()
  | _ -> Alcotest.fail "line limit not enforced");
  (match Protocol.parse ~limits:tiny ~n:64 "apply f0 f1 f2" with
  | Error (Protocol.Batch_too_large 3) -> ()
  | _ -> Alcotest.fail "batch limit not enforced");
  (* hostile bytes never raise *)
  let r = rng () in
  for _ = 1 to 500 do
    let line =
      String.init (Fn_prng.Rng.int r 80) (fun _ -> Char.chr (Fn_prng.Rng.int r 256))
    in
    match Protocol.parse ~n:64 line with
    | Ok _ | Error _ -> ()
  done

let test_event_json_roundtrip () =
  let batch = [ Event.Fault 12; Event.Repair 0; Event.Fault 999 ] in
  (match Event.batch_of_json (Event.batch_to_json batch) with
  | Some b -> check_bool "json roundtrip" true (b = batch)
  | None -> Alcotest.fail "json roundtrip failed");
  match Event.batch_of_json (Fn_obs.Jsonx.Str "nope") with
  | None -> ()
  | Some _ -> Alcotest.fail "bad json accepted"

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_server_session () =
  let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:8)) in
  let cfg = { Engine.default_config with Engine.alpha = 1.0; epsilon = 0.5 } in
  let engine = Engine.create ~cfg view in
  let say line = Server.handle engine line in
  let expect line want =
    match (say line).Server.reply with
    | Some got -> check_bool (line ^ " -> " ^ want) true (String.equal want got)
    | None -> Alcotest.fail ("no reply to " ^ line)
  in
  expect "alive? 5" "ok true";
  expect "apply f5 f6" "ok applied=2 alive=62";
  expect "alive? 5" "ok false";
  expect "apply f5" "err rejected fault of already-faulty node 5";
  expect "alive? 999" "err bad-node alive? wants a node in [0, 64), got 999";
  (match (say "alpha?").Server.reply with
  | Some s -> check_bool "alpha ok" true (starts_with ~prefix:"ok 0x" s)
  | None -> Alcotest.fail "no alpha reply");
  (match (say "state?").Server.reply with
  | Some s -> check_bool "digest ok" true (starts_with ~prefix:"ok digest=" s)
  | None -> Alcotest.fail "no state reply");
  (match (say "audit!").Server.reply with
  | Some s -> check_bool "audit clean" true (starts_with ~prefix:"ok " s && not (starts_with ~prefix:"ok kept=false" s))
  | None -> Alcotest.fail "no audit reply");
  check_bool "comment ignored" true (Option.is_none (say "# hi").Server.reply);
  let out = say "quit" in
  check_bool "quit stops" true out.Server.quit

(* nan fails every comparison, so each check is the negation of its
   valid range: a nan threshold would qualify no ball and certify every
   node *)
let test_cert_rejects_nan () =
  let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:8)) in
  let alive = Bitset.create_full 64 in
  let create ?(max_dirty_frac = 1.0) ~alpha ~epsilon () =
    ignore (Cert.create ~max_dirty_frac view ~alive ~alpha ~epsilon)
  in
  Alcotest.check_raises "alpha" (Invalid_argument "Cert.create: alpha must be positive")
    (create ~alpha:Float.nan ~epsilon:0.5);
  Alcotest.check_raises "epsilon" (Invalid_argument "Cert.create: need 0 < epsilon < 1")
    (create ~alpha:1.0 ~epsilon:Float.nan);
  Alcotest.check_raises "max_dirty_frac"
    (Invalid_argument "Cert.create: need 0 < max_dirty_frac <= 1")
    (create ~max_dirty_frac:Float.nan ~alpha:1.0 ~epsilon:0.5)

let test_query_deadline () =
  let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:8)) in
  let engine = Engine.create view in
  (* an impossible budget: every query blows it, post hoc *)
  let reply line =
    match (Server.handle ~deadline_s:1e-12 engine line).Server.reply with
    | Some s -> s
    | None -> Alcotest.fail ("no reply to " ^ line)
  in
  check_bool "query refused post-hoc" true (starts_with ~prefix:"err deadline" (reply "alpha?"));
  check_bool "stats refused" true (starts_with ~prefix:"err deadline" (reply "stats?"));
  (* state-changing commands are exempt: an applied batch must ack ok,
     or replayable state would change on a non-ok reply *)
  check_bool "apply exempt" true (starts_with ~prefix:"ok applied=" (reply "apply f3"));
  check_bool "audit exempt" true (starts_with ~prefix:"ok kept=" (reply "audit!"));
  check_int "batch really applied" 1 (Engine.stats engine).Engine.batches;
  (* a generous budget lets everything through *)
  match (Server.handle ~deadline_s:3600.0 engine "alpha?").Server.reply with
  | Some s -> check_bool "generous deadline passes" true (starts_with ~prefix:"ok 0x" s)
  | None -> Alcotest.fail "no alpha reply"

(* ------------------------------------------------------------------ *)
(* Fuzzing: total parsing + state-changes-only-on-ok                   *)
(* ------------------------------------------------------------------ *)

module Fuzz = Fn_online.Fuzz

let test_fuzz_10k () =
  let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:8)) in
  let cfg = { Engine.default_config with Engine.alpha = 1.0; epsilon = 0.5 } in
  let engine = Engine.create ~cfg view in
  let r = Fuzz.run engine ~seed:0xfeed ~count:10_000 in
  (match r.Fuzz.exceptions with
  | [] -> ()
  | (line, e) :: _ ->
    Alcotest.failf "%d uncaught exceptions; first: %S -> %s"
      (List.length r.Fuzz.exceptions) line e);
  (match r.Fuzz.violations with
  | [] -> ()
  | line :: _ ->
    Alcotest.failf "%d state-change-on-err violations; first: %S"
      (List.length r.Fuzz.violations) line);
  check_int "every line answered or ignored" 10_000 (r.Fuzz.ok + r.Fuzz.err + r.Fuzz.ignored);
  (* the generator must actually exercise both halves of the grammar *)
  check_bool "some commands accepted" true (r.Fuzz.ok > 1000);
  check_bool "some lines refused" true (r.Fuzz.err > 1000);
  (* differential determinism: the same seed replays to the same digest *)
  let engine2 = Engine.create ~cfg view in
  let r2 = Fuzz.run engine2 ~seed:0xfeed ~count:10_000 in
  check_bool "fuzz run deterministic" true (r = r2);
  check_bool "fuzzed engines digest-identical" true
    (String.equal (Engine.state_digest engine) (Engine.state_digest engine2))

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_fuzz_corpus () =
  (* regression corpus: every line that ever crashed or misbehaved a
     server lands here verbatim and is replayed forever *)
  let corpus = Filename.concat (Filename.concat "fixtures" "fuzz") "corpus.txt" in
  if not (Sys.file_exists corpus) then Alcotest.fail ("missing corpus: " ^ corpus)
  else begin
    let lines = read_lines corpus in
    check_bool "corpus non-trivial" true (List.length lines >= 40);
    let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:8)) in
    let engine = Engine.create view in
    match Fuzz.replay engine lines with
    | [] -> ()
    | (line, e) :: _ -> Alcotest.failf "corpus line %S raised %s" line e
  end

(* ------------------------------------------------------------------ *)
(* Overload shedding and degraded mode                                 *)
(* ------------------------------------------------------------------ *)

(* torus 8x8, radius 2: one changed node dirties its radius-3 ball
   (25 nodes); two far-apart nodes dirty ~50 of 64.  max_dirty_frac
   0.5 puts the threshold at 32: single-node batches refresh normally,
   spread batches shed. *)
let shedding_engine () =
  let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:8)) in
  let cfg =
    { Engine.default_config with Engine.alpha = 1.0; epsilon = 0.5; max_dirty_frac = 0.5 }
  in
  Engine.create ~cfg view

let apply_exn engine evs =
  match Engine.apply engine evs with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "batch rejected: %s" (Fn_faults.Churn.error_to_string e)

let test_shedding_degraded_mode () =
  let engine = shedding_engine () in
  apply_exn engine [ Event.Fault 0 ];
  check_bool "small batch not shed" false (Engine.degraded engine);
  let alpha_before = Engine.alpha engine in
  let kept_before = (Engine.result engine).Faultnet.Prune.kept in
  (* nodes 18=(2,2) and 54=(6,6) are torus-distance 8 apart: disjoint
     radius-3 balls, 50 dirty nodes > 32 *)
  apply_exn engine [ Event.Fault 18; Event.Fault 54 ];
  check_bool "spread batch shed" true (Engine.degraded engine);
  check_int "shed counted" 1 (Engine.stats engine).Engine.shed_batches;
  (* reads serve the stale pinned cascade, stamped *)
  let say line = (Server.handle engine line).Server.reply in
  (match say "alpha?" with
  | Some s ->
    check_bool "alpha stamped degraded" true
      (String.equal s ("ok " ^ Protocol.float_hex alpha_before ^ " degraded"))
  | None -> Alcotest.fail "no alpha reply");
  (match say "certificate? 18" with
  | Some s ->
    (* node 18 is faulty, but the stale certificate still lists it *)
    check_bool "stale certificate stamped" true
      (String.equal s
         (Printf.sprintf "ok %b degraded" (Bitset.mem kept_before 18)))
  | None -> Alcotest.fail "no certificate reply");
  (* aliveness is mask-backed and never stale *)
  (match say "alive? 18" with
  | Some s -> Alcotest.(check string) "alive is current" "ok false" s
  | None -> Alcotest.fail "no alive reply");
  check_bool "degraded answers counted" true
    ((Engine.stats engine).Engine.degraded_answers >= 2);
  (* the next under-threshold batch pays the deferred rebuild *)
  apply_exn engine [ Event.Fault 1 ];
  check_bool "caught up" false (Engine.degraded engine);
  let mask = Engine.alive_mask engine in
  let scratch = Cert.scratch ~radius:2 (Engine.view engine) ~alive:mask ~alpha:1.0 ~epsilon:0.5 in
  check_bool "post-catchup result equals scratch" true
    (result_equal (Engine.result engine) scratch);
  check_int "clean audit after shedding" 0 (Engine.audit engine).Engine.faults

let test_shedding_deterministic () =
  (* degraded answers are a pure function of the accepted batch
     history: two engines fed the same batches agree byte for byte,
     including the stale ones *)
  let trace engine =
    let out = ref [] in
    let say line =
      match (Server.handle engine line).Server.reply with
      | Some s -> out := s :: !out
      | None -> ()
    in
    say "apply f0";
    say "alpha?";
    say "apply f18 f54";
    say "alpha?";
    say "certificate? 18";
    say "state?";
    say "apply f1";
    say "alpha?";
    say "state?";
    List.rev !out
  in
  let t1 = trace (shedding_engine ()) in
  let t2 = trace (shedding_engine ()) in
  check_bool "degraded session deterministic" true (t1 = t2)

let test_audit_pays_deferred_rebuild () =
  let engine = shedding_engine () in
  apply_exn engine [ Event.Fault 18; Event.Fault 54 ];
  check_bool "shed" true (Engine.degraded engine);
  (* the audit refreshes first, so shedding alone is never divergence *)
  let rep = Engine.audit engine in
  check_int "audit clean through shedding" 0 rep.Engine.faults;
  check_bool "audit clears degraded" false (Engine.degraded engine);
  check_int "no quarantine" 0 (Engine.quarantines engine)

(* ------------------------------------------------------------------ *)
(* Audit quarantine self-healing                                       *)
(* ------------------------------------------------------------------ *)

let rm_rf_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let test_quarantine_self_healing () =
  (* A maintenance bug stands in for the divergence: one kept node is
     dropped from the engine's cached cascade behind its back.
     [Engine.result] is documented read-only, so writing to it is
     exactly the corruption the audit exists to catch; the quarantine
     machinery must fire. *)
  let dir = Filename.temp_file "fn_quarantine" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf_dir dir) (fun () ->
      let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:12)) in
      let cfg =
        { Engine.default_config with Engine.alpha = 1.0; epsilon = 0.5; seed = 7;
          postmortem = Some dir }
      in
      let engine = Engine.create ~cfg view in
      let r = rng () in
      for _ = 1 to 3 do
        apply_exn engine (random_batch r engine 3);
        ignore (Engine.alpha engine : float)
      done;
      let kept = (Engine.result engine).Faultnet.Prune.kept in
      Bitset.remove kept (Bitset.to_array kept).(0);
      let rep = Engine.audit engine in
      check_bool "corrupted cascade produced a divergent audit" true (rep.Engine.faults > 0);
      check_bool "kept sets differ" false rep.Engine.kept_equal;
      (* the audit adopted the scratch truth, alpha included *)
      let scratch =
        Cert.scratch ~radius:2 view ~alive:(Engine.alive_mask engine) ~alpha:1.0 ~epsilon:0.5
      in
      check_bool "alpha reconciled to the scratch reference" true
        (Int64.equal
           (Int64.bits_of_float (Engine.alpha engine))
           (Int64.bits_of_float
              (Alpha_cache.reference ~seed:7 view ~kept:scratch.Faultnet.Prune.kept)));
      check_int "quarantine counted" 1 (Engine.quarantines engine);
      check_int "stats agree" 1 (Engine.stats engine).Engine.quarantines;
      (* the post-mortem snapshot exists and binds to (seed, n) *)
      let files = Array.to_list (Sys.readdir dir) in
      check_int "one post-mortem written" 1 (List.length files);
      let pm = Filename.concat dir (List.hd files) in
      (match
         Fn_resilience.Snapshot.read ~path:pm
           ~meta:[ ("seed", Fn_obs.Jsonx.Int 7); ("n", Fn_obs.Jsonx.Int 144) ]
       with
      | Ok payload ->
        check_bool "post-mortem carries both kept sets" true
          (Option.is_some (Fn_obs.Jsonx.member "kept_incremental" payload)
          && Option.is_some (Fn_obs.Jsonx.member "kept_scratch" payload)
          && Option.is_some (Fn_obs.Jsonx.member "faulty" payload))
      | Error e -> Alcotest.fail ("post-mortem unreadable: " ^ e));
      (* a wrong binding refuses the post-mortem *)
      (match
         Fn_resilience.Snapshot.read ~path:pm ~meta:[ ("seed", Fn_obs.Jsonx.Int 8) ]
       with
      | Ok _ -> Alcotest.fail "post-mortem bound to wrong seed"
      | Error _ -> ());
      (* self-healed: the immediate re-audit is clean and does not
         quarantine again *)
      let rep = Engine.audit engine in
      check_int "re-audit clean" 0 rep.Engine.faults;
      check_int "no second quarantine" 1 (Engine.quarantines engine);
      (* audit! reports the count on the wire *)
      match (Server.handle engine "audit!").Server.reply with
      | Some s -> check_bool "quarantines on the wire" true (contains s "quarantines=1")
      | None -> Alcotest.fail "no audit reply")

(* ------------------------------------------------------------------ *)
(* Snapshot restore and journal recovery                               *)
(* ------------------------------------------------------------------ *)

let test_encode_restore_roundtrip () =
  let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:8)) in
  let cfg = { Engine.default_config with Engine.alpha = 1.0; epsilon = 0.5; seed = 3 } in
  let a = Engine.create ~cfg view in
  apply_exn a [ Event.Fault 3; Event.Fault 4 ];
  apply_exn a [ Event.Fault 20; Event.Repair 3 ];
  apply_exn a [ Event.Fault 9 ];
  let snap = Engine.encode_state a in
  let b = Engine.create ~cfg view in
  (match Engine.restore b snap with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("restore failed: " ^ e));
  check_bool "digest byte-identical" true
    (String.equal (Engine.state_digest a) (Engine.state_digest b));
  check_int "counters restored" 5 (Engine.stats b).Engine.events;
  check_int "batches restored" 3 (Engine.stats b).Engine.batches;
  (* restore refuses a non-fresh engine *)
  (match Engine.restore b snap with
  | Error e -> check_bool "non-fresh refused" true (contains e "fresh")
  | Ok () -> Alcotest.fail "restored onto live state");
  (* and malformed snapshots *)
  let c = Engine.create ~cfg view in
  (match Engine.restore c (Fn_obs.Jsonx.Str "garbage") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "garbage restored");
  (* and a digest that does not verify *)
  let lying =
    match snap with
    | Fn_obs.Jsonx.Obj fields ->
      Fn_obs.Jsonx.Obj
        (List.map
           (function
             | "digest", _ -> ("digest", Fn_obs.Jsonx.Str "0000000000000000")
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "snapshot not an object"
  in
  let d = Engine.create ~cfg view in
  match Engine.restore d lying with
  | Error e -> check_bool "digest mismatch names both" true (contains e "mismatch")
  | Ok () -> Alcotest.fail "lying digest accepted"

let with_temp_journal f =
  let path = Filename.temp_file "fn_online" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; Fn_resilience.Journal.compact_tmp_path path ])
    (fun () -> f path)

(* Drive a journaled session the way serve does, compacting on the
   given cadence, with an optional kill injected into one compaction. *)
let record_session ?kill_at path cfg view batches ~compact_every =
  let engine = Engine.create ~cfg view in
  let j =
    match Fn_resilience.Journal.open_ ~path ~meta:[ ("seed", Fn_obs.Jsonx.Int 3) ] with
    | Ok j -> j
    | Error e -> Alcotest.fail ("journal open failed: " ^ e)
  in
  Fun.protect ~finally:(fun () -> Fn_resilience.Journal.close j) (fun () ->
      List.iteri
        (fun i evs ->
          apply_exn engine evs;
          Fn_resilience.Journal.record_trial j ~scope:Server.scope ~index:i
            (Event.batch_to_json evs);
          if (i + 1) mod compact_every = 0 then
            let on_tmp_written =
              match kill_at with
              | Some k when k = i + 1 -> fun () -> raise Exit
              | _ -> fun () -> ()
            in
            match
              Fn_resilience.Journal.compact ~on_tmp_written j ~scope:Server.scope
                ~upto:(i + 1) ~snapshot:(Engine.encode_state engine)
            with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("compact failed: " ^ e)
            | exception Exit -> ())
        batches;
      Engine.state_digest engine)

let session_batches =
  [
    [ Event.Fault 3; Event.Fault 4 ];
    [ Event.Fault 20 ];
    [ Event.Repair 3; Event.Fault 9 ];
    [ Event.Fault 40; Event.Fault 41 ];
    [ Event.Repair 9 ];
    [ Event.Fault 11 ];
  ]

let recover_digest path cfg view =
  let j =
    match Fn_resilience.Journal.open_ ~path ~meta:[ ("seed", Fn_obs.Jsonx.Int 3) ] with
    | Ok j -> j
    | Error e -> Alcotest.fail ("journal reopen failed: " ^ e)
  in
  Fun.protect ~finally:(fun () -> Fn_resilience.Journal.close j) (fun () ->
      let engine = Engine.create ~cfg view in
      match Server.recover j engine with
      | Ok next -> (next, Engine.state_digest engine)
      | Error e -> Alcotest.fail ("recover failed: " ^ e))

let test_recover_from_compacted_journal () =
  let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:8)) in
  let cfg = { Engine.default_config with Engine.alpha = 1.0; epsilon = 0.5; seed = 3 } in
  with_temp_journal (fun path ->
      let live = record_session path cfg view session_batches ~compact_every:2 in
      let next, recovered = recover_digest path cfg view in
      check_int "recovery resumes at the tail" 6 next;
      check_bool "digest byte-identical through snapshot restore" true
        (String.equal live recovered))

let test_recover_after_killed_compaction () =
  let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:8)) in
  let cfg = { Engine.default_config with Engine.alpha = 1.0; epsilon = 0.5; seed = 3 } in
  with_temp_journal (fun path ->
      (* the final compaction dies between tmp write and rename (an
         earlier kill would be papered over by the next successful
         compaction); the journal still holds the batch-4 snapshot
         plus the suffix batches, so recovery must land on the same
         digest anyway *)
      let live = record_session ~kill_at:6 path cfg view session_batches ~compact_every:2 in
      check_bool "stale staging file left by the kill" true
        (Sys.file_exists (Fn_resilience.Journal.compact_tmp_path path));
      let next, recovered = recover_digest path cfg view in
      check_int "recovery resumes at the tail" 6 next;
      check_bool "digest byte-identical after aborted compaction" true
        (String.equal live recovered))

(* ------------------------------------------------------------------ *)
(* Daemon kill-and-resume byte-identity (subprocess)                   *)
(* ------------------------------------------------------------------ *)

let daemon =
  let candidates =
    [
      Filename.concat (Filename.concat ".." "bin") "faultnetd.exe";
      List.fold_left Filename.concat "_build" [ "default"; "bin"; "faultnetd.exe" ];
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [serve] hands its budget to every line it handles, with a journal
   or without: under an impossible budget queries are refused while
   apply is still answered [ok] and, when journaled, recorded. *)
let test_serve_applies_deadline () =
  let tmp suffix = Filename.temp_file "fn_online_deadline" suffix in
  let inp = tmp ".in" and out = tmp ".out" and journal = tmp ".jsonl" in
  Sys.remove journal;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ inp; out; journal ])
    (fun () ->
      write_file inp "alpha?\napply f3\nalive? 3\nquit\n";
      let serve ?journal () =
        let engine = Engine.create (Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:8))) in
        let result =
          In_channel.with_open_bin inp (fun ic ->
              Out_channel.with_open_bin out (fun oc ->
                  Server.serve ?journal ~deadline_s:1e-12 engine ic oc))
        in
        (match result with Ok () -> () | Error m -> Alcotest.fail ("serve: " ^ m));
        String.split_on_char '\n' (String.trim (read_file out))
      in
      List.iter
        (fun (label, lines) ->
          match lines with
          | [ alpha; apply; alive; bye ] ->
            check_bool (label ^ ": alpha? refused") true (starts_with ~prefix:"err deadline" alpha);
            check_bool (label ^ ": apply answered") true (apply = "ok applied=1 alive=63");
            check_bool (label ^ ": alive? refused") true (starts_with ~prefix:"err deadline" alive);
            check_bool (label ^ ": quit answered") true (bye = "ok bye")
          | _ -> Alcotest.failf "%s: expected four replies, got %d" label (List.length lines))
        [ ("no journal", serve ()); ("journal", serve ~journal ()) ];
      check_bool "the applied batch is journaled" true
        (contains (read_file journal) {|"value":["f3"]|}))

(* Each refusal counts in "online.deadline_misses" when the engine's
   sink is on; exempt commands and met budgets count nothing. *)
let test_deadline_misses_counted () =
  let cfg = { Engine.default_config with Engine.obs = Fn_obs.Sink.discard () } in
  let engine = Engine.create ~cfg (Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:8))) in
  let misses = Fn_obs.Metrics.counter "online.deadline_misses" in
  let before = Fn_obs.Metrics.counter_value misses in
  List.iter
    (fun line -> ignore (Server.handle ~deadline_s:1e-12 engine line))
    [ "alive? 0"; "stats?"; "apply f3"; "audit!" ];
  ignore (Server.handle ~deadline_s:3600.0 engine "alive? 0");
  ignore (Server.handle engine "alive? 0");
  check_int "two refused queries" 2 (Fn_obs.Metrics.counter_value misses - before)

let test_daemon_kill_and_resume () =
  if not (Sys.file_exists daemon) then Alcotest.skip ()
  else begin
    let tmp suffix = Filename.temp_file "fn_online" suffix in
    let inp = tmp ".in" and out = tmp ".out" and errf = tmp ".err" in
    let journal = tmp ".jsonl" in
    Sys.remove journal;
    let args = "--topology torus:8x8 --seed 5 --alpha 1.0 --epsilon 0.5" in
    let run extra input =
      write_file inp input;
      let cmd = Printf.sprintf "%s %s %s < %s > %s 2> %s" daemon args extra inp out errf in
      check_int ("exit 0: " ^ extra) 0 (Sys.command cmd);
      read_file out
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun f -> if Sys.file_exists f then Sys.remove f)
          [ inp; out; errf; journal ])
      (fun () ->
        let b1 = "apply f3 f4 f5\n" and b2 = "apply f20 r3\n" in
        let b3 = "apply f40 f41\n" and b4 = "apply r20 f9\n" in
        let probe = "state?\nalpha?\nstats?\nquit\n" in
        (* uninterrupted reference *)
        let reference = run "" (b1 ^ b2 ^ b3 ^ b4 ^ probe) in
        (* killed session: first two batches, journaled *)
        let _ = run ("--journal " ^ journal) (b1 ^ b2) in
        (* resumed session: replays b1/b2, then continues *)
        let resumed = run ("--journal " ^ journal ^ " --resume") (b3 ^ b4 ^ probe) in
        let tail4 s =
          let lines = String.split_on_char '\n' (String.trim s) in
          let k = List.length lines in
          List.filteri (fun i _ -> i >= k - 4) lines
        in
        (* the digest, alpha and stats lines must be byte-identical to
           the uninterrupted run; earlier lines differ only in how
           many apply acks each process printed *)
        check_bool "resumed state byte-identical" true (tail4 reference = tail4 resumed);
        (* resuming with a different epsilon must be refused *)
        write_file inp "quit\n";
        let cmd =
          Printf.sprintf
            "%s --topology torus:8x8 --seed 5 --alpha 1.0 --epsilon 0.25 --journal %s \
             --resume < %s > %s 2> %s"
            daemon journal inp out errf
        in
        check_bool "mismatched epsilon refused" true (Sys.command cmd <> 0);
        check_bool "mismatch explained" true
          (let e = read_file errf in
           let rec contains i =
             i + 8 <= String.length e && (String.equal (String.sub e i 8) "mismatch" || contains (i + 1))
           in
           contains 0))
  end

let test_daemon_compaction_resume () =
  if not (Sys.file_exists daemon) then Alcotest.skip ()
  else begin
    let tmp suffix = Filename.temp_file "fn_online" suffix in
    let inp = tmp ".in" and out = tmp ".out" and errf = tmp ".err" in
    let journal = tmp ".jsonl" in
    Sys.remove journal;
    let args = "--topology torus:8x8 --seed 5 --alpha 1.0 --epsilon 0.5" in
    let run extra input =
      write_file inp input;
      let cmd = Printf.sprintf "%s %s %s < %s > %s 2> %s" daemon args extra inp out errf in
      check_int ("exit 0: " ^ extra) 0 (Sys.command cmd);
      read_file out
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun f -> if Sys.file_exists f then Sys.remove f)
          [ inp; out; errf; journal ])
      (fun () ->
        (* 12 batches, compacted after every one: the journal the kill
           leaves behind has been rewritten 12 times *)
        let batches =
          String.concat ""
            (List.init 12 (fun i ->
                 Printf.sprintf "apply f%d\n" ((i * 7) mod 64)))
        in
        (* stats? is deliberately absent from the probe: snapshot
           restore reaches the same replayable state in fewer surveys,
           and work counters are excluded from the resume contract *)
        let probe = "state?\nalpha?\nquit\n" in
        let reference = run "" (batches ^ probe) in
        let _ = run ("--journal " ^ journal ^ " --compact-every 1") batches in
        (* the compacted journal carries a snapshot and no batch prefix *)
        let jtext = read_file journal in
        check_bool "snapshot line present" true (contains jtext "\"kind\":\"snapshot\"");
        check_bool "prefix batches dropped" false (contains jtext "\"kind\":\"trial\"");
        let resumed =
          run ("--journal " ^ journal ^ " --compact-every 1 --resume") probe
        in
        let tail3 s =
          let lines = String.split_on_char '\n' (String.trim s) in
          let k = List.length lines in
          List.filteri (fun i _ -> i >= k - 3) lines
        in
        check_bool "digest and alpha byte-identical after 12 compactions" true
          (tail3 reference = tail3 resumed))
  end

(* fixtures/online/torus16_seed3.jsonl is the journal an earlier
   faultnetd build wrote for torus16_seed3.session (five batches with
   alpha? between them, compaction every 2 batches); .out is what that
   build printed.  Its meta header still carries "mode":"exact", a key
   today's binary no longer binds.  Resuming a copy must succeed and
   land on the recorded digest: old headers stay readable, and neither
   the alpha bits nor the state digest moved through snapshot restore
   and replay. *)
let test_daemon_resumes_recorded_journal () =
  if not (Sys.file_exists daemon) then Alcotest.skip ()
  else begin
    let fixture name = Filename.concat (Filename.concat "fixtures" "online") name in
    let recorded =
      List.find
        (fun l -> contains l "digest=")
        (String.split_on_char '\n' (read_file (fixture "torus16_seed3.out")))
    in
    let tmp suffix = Filename.temp_file "fn_online" suffix in
    let inp = tmp ".in" and out = tmp ".out" and errf = tmp ".err" in
    let journal = tmp ".jsonl" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun f -> if Sys.file_exists f then Sys.remove f)
          [ inp; out; errf; journal ])
      (fun () ->
        write_file journal (read_file (fixture "torus16_seed3.jsonl"));
        check_bool "header carries the old mode key" true
          (contains (read_file journal) "\"mode\":\"exact\"");
        write_file inp "state?\nquit\n";
        let cmd =
          Printf.sprintf
            "%s --topology torus:16x16 --seed 3 --alpha 1.0 --epsilon 0.5 --journal %s \
             --compact-every 2 --resume < %s > %s 2> %s"
            daemon journal inp out errf
        in
        check_int "resume exits 0" 0 (Sys.command cmd);
        Alcotest.(check string)
          "recorded digest" recorded
          (List.hd (String.split_on_char '\n' (read_file out))))
  end

let test_event_tokens () =
  check_bool "fault token" true (Event.to_token (Event.Fault 12) = "f12");
  check_bool "repair token" true (Event.to_token (Event.Repair 3) = "r3");
  List.iter
    (fun ev -> check_bool "roundtrip" true (Event.of_token (Event.to_token ev) = Some ev))
    [ Event.Fault 0; Event.Repair 7; Event.Fault 1_000_000 ];
  List.iter
    (fun tok -> check_bool (tok ^ " refused") true (Event.of_token tok = None))
    [
      "x1"; "f"; ""; "r1.5"; "f0x10"; "f1_7"; "f007"; "f+9"; "f-0"; "r0b11"; "f00"; "f 1";
      "f4611686018427387904"; "f99999999999999999999999999";
    ];
  check_bool "negative ids decode (the protocol refuses them)" true
    (Event.of_token "r-3" = Some (Event.Repair (-3)));
  check_bool "max_int decodes" true
    (Event.of_token (Event.to_token (Event.Fault max_int)) = Some (Event.Fault max_int))

(* of_token accepts a token naming a non-negative id only in the
   spelling to_token gives it, and decodes every spelling to_token
   gives.  Tokens are drawn from a small alphabet of prefixes, digits,
   signs and literal marks, so near-misses ("f07", "f-0", "r1_0",
   "f0x1") come up often. *)
let prop_event_token_spelling =
  let open QCheck2.Gen in
  let body = string_size ~gen:(oneofl (String.to_seq "0179-+_xbe " |> List.of_seq)) (int_range 0 6) in
  let token = map2 ( ^ ) (oneofl [ "f"; "r"; "x"; "" ]) body in
  let id = oneof [ int_range 0 1000; int_range (-1000) (-1); int; oneofl [ max_int; min_int ] ] in
  prop ~count:2000 "of_token accepts exactly to_token's spellings" (triple token id bool)
    (fun (s, v, fault) ->
      let e = if fault then Event.Fault v else Event.Repair v in
      (match Event.of_token s with
      | Some d when Fn_faults.Churn.event_node d >= 0 -> String.equal (Event.to_token d) s
      | Some _ | None -> true)
      && Event.of_token (Event.to_token e) = Some e)

let test_protocol_limits_and_errors () =
  let l = Protocol.default_limits in
  check_int "64 KiB lines" 65536 l.Protocol.max_line_bytes;
  check_int "4096 events" 4096 l.Protocol.max_batch_events;
  let e = Protocol.Bad_node "x" in
  check_bool "error text leads with its code" true
    (String.starts_with ~prefix:(Protocol.error_code e ^ " ") (Protocol.error_to_string e))

let test_engine_accessors () =
  let cfg = { Engine.default_config with Engine.radius = 3 } in
  let engine = Engine.create ~cfg (Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:6))) in
  check_int "universe" 36 (Engine.universe engine);
  check_int "config kept" 3 (Engine.config engine).Engine.radius;
  apply_exn engine [ Event.Fault 4; Event.Fault 9 ];
  check_int "alive count" 34 (Engine.alive_count engine);
  check_bool "a faulty node is outside the certificate" false (Engine.in_certificate engine 4);
  check_bool "membership matches the result" true
    (List.for_all
       (fun v -> Engine.in_certificate engine v = Bitset.mem (Engine.result engine).Faultnet.Prune.kept v)
       (List.init 36 Fun.id))

let test_cert_counters () =
  let view = Gview.Csr (fst (Fn_topology.Torus.cube ~d:2 ~side:6)) in
  let alive = Bitset.create_full 36 in
  let c = Cert.create view ~alive ~alpha:1.0 ~epsilon:0.5 in
  check_int "alive count" 36 (Cert.alive_count c);
  check_int "one survey per node at creation" 36 (Cert.recomputed c);
  Cert.apply c [ Event.Fault 0 ];
  check_int "mask follows the batch" 35 (Cert.alive_count c);
  check_bool "copy of the mask" false (Bitset.mem (Cert.alive c) 0);
  check_bool "dirty region measured" true (Cert.last_dirty c > 0 && Cert.dirty_peak c >= Cert.last_dirty c);
  check_bool "re-surveys counted" true (Cert.recomputed c > 36)

let test_view_of_spec () =
  (match Server.view_of_spec (rng ()) "torus:4x4" with
  | Ok v -> check_int "nodes" 16 (Gview.num_nodes v)
  | Error m -> Alcotest.fail m);
  check_bool "bad spec refused" true (Result.is_error (Server.view_of_spec (rng ()) "torus:0x4"))

let () =
  Alcotest.run "online"
    [
      ("dirty", [ case "basics" test_dirty_basics ]);
      ( "delta_bfs",
        [
          case "survey matches naive BFS" test_survey_matches_naive;
          case "survey boundary is Prune boundary" test_survey_boundary_is_prune_boundary;
          case "region marks r-neighborhood once" test_region_marks_neighborhood;
        ] );
      ( "differential",
        [
          case "mesh 8x8" test_differential_mesh;
          case "mesh 8x8 aggressive threshold" test_differential_mesh_aggressive;
          case "torus 6x6" test_differential_torus;
          case "implicit torus 8x8" test_differential_implicit_torus;
          case "expander 64/4" test_differential_expander;
        ] );
      ( "engine",
        [
          case "invalid batches are atomic" test_invalid_batch_is_atomic;
          case "coalescing last-write-wins" test_coalescing_last_write_wins;
          case "alpha? queries move no answer" test_alpha_queries_move_no_answer;
          case "cert refuses nan parameters" test_cert_rejects_nan;
        ] );
      ("alpha_cache", [ case "memo answers equal reference" test_alpha_cache_memo ]);
      ( "protocol",
        [
          case "roundtrip" test_protocol_roundtrip;
          case "hardening: typed errors, limits, hostile bytes" test_protocol_hardening;
          case "event json roundtrip" test_event_json_roundtrip;
          case "in-process session" test_server_session;
          case "query deadline" test_query_deadline;
          case "serve applies the deadline" test_serve_applies_deadline;
          case "deadline misses counted" test_deadline_misses_counted;
        ] );
      ( "fuzz",
        [
          case "10k lines: no exceptions, state only on ok" test_fuzz_10k;
          case "regression corpus replays" test_fuzz_corpus;
        ] );
      ( "shedding",
        [
          case "degraded mode serves stale stamped answers" test_shedding_degraded_mode;
          case "degraded sessions deterministic" test_shedding_deterministic;
          case "audit pays deferred rebuild" test_audit_pays_deferred_rebuild;
        ] );
      ("quarantine", [ case "divergent audit self-heals" test_quarantine_self_healing ]);
      ( "recovery",
        [
          case "encode/restore roundtrip" test_encode_restore_roundtrip;
          case "recover from compacted journal" test_recover_from_compacted_journal;
          case "recover after killed compaction" test_recover_after_killed_compaction;
        ] );
      ( "daemon",
        [
          case "kill-and-resume byte-identity" test_daemon_kill_and_resume;
          case "kill-and-resume with compaction" test_daemon_compaction_resume;
          case "resumes a journal an earlier build wrote" test_daemon_resumes_recorded_journal;
          case "event tokens" test_event_tokens;
          case "protocol limits and error text" test_protocol_limits_and_errors;
          case "engine accessors" test_engine_accessors;
          case "certificate counters" test_cert_counters;
          case "view_of_spec" test_view_of_spec;
          prop_event_token_spelling;
        ] );
    ]
