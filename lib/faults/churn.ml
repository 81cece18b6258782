open Fn_graph
open Fn_prng

type snapshot = { time : float; faults : Fault_set.t }

type event = Fault of int | Repair of int

type batch_error =
  | Out_of_range of int
  | Fault_of_faulty of int
  | Repair_of_alive of int

let event_node = function Fault v | Repair v -> v

let error_to_string = function
  | Out_of_range v -> Printf.sprintf "node %d out of range" v
  | Fault_of_faulty v -> Printf.sprintf "fault of already-faulty node %d" v
  | Repair_of_alive v -> Printf.sprintf "repair of alive node %d" v

(* Last-write-wins coalescing keyed by node: the surviving event for a
   node is its last occurrence, emitted at that occurrence's position,
   so the normalized batch preserves the input's relative order of
   *final* intents.  Validation runs on the coalesced batch against
   the pre-batch mask — [Fault v; Repair v] on an alive [v] coalesces
   to [Repair v] and is rejected as [Repair_of_alive]. *)
let normalize_batch ~n ~faulty events =
  let arr = Array.of_list events in
  let last = Hashtbl.create (2 * max 1 (Array.length arr)) in
  let range_err = ref None in
  Array.iteri
    (fun i ev ->
      let v = event_node ev in
      if v < 0 || v >= n then begin
        if Option.is_none !range_err then range_err := Some (Out_of_range v)
      end
      else Hashtbl.replace last v i)
    arr;
  match !range_err with
  | Some e -> Error e
  | None ->
    let err = ref None in
    let out = ref [] in
    Array.iteri
      (fun i ev ->
        if Option.is_none !err then begin
          let v = event_node ev in
          if (match Hashtbl.find_opt last v with Some j -> j = i | None -> false) then
            match ev with
            | Fault v when Bitset.mem faulty v -> err := Some (Fault_of_faulty v)
            | Repair v when not (Bitset.mem faulty v) -> err := Some (Repair_of_alive v)
            | ev -> out := ev :: !out
        end)
      arr;
    (match !err with Some e -> Error e | None -> Ok (List.rev !out))

let apply_batch ~faulty events =
  List.iter
    (function
      | Fault v -> Bitset.add faulty v
      | Repair v -> Bitset.remove faulty v)
    events

let stationary_dead_fraction ~rate_fail ~rate_repair =
  if not (rate_fail >= 0.0 && rate_repair > 0.0) then
    invalid_arg "Churn.stationary_dead_fraction: need rate_fail >= 0, rate_repair > 0";
  rate_fail /. (rate_fail +. rate_repair)

(* Per-node independent on/off processes.  Instead of a global event
   queue we exploit independence: for each node, walk its alternating
   exponential holding times; record its state at each snapshot
   instant.  This is exact and O(expected flips per node + snapshots)
   per node. *)
let simulate rng g ~rate_fail ~rate_repair ~horizon ~snapshots =
  if not (rate_fail > 0.0 && rate_repair > 0.0) then
    invalid_arg "Churn.simulate: rates must be positive";
  if not (horizon > 0.0) then invalid_arg "Churn.simulate: horizon must be positive";
  if snapshots < 1 then invalid_arg "Churn.simulate: need at least one snapshot";
  let n = Graph.num_nodes g in
  let times =
    Array.init snapshots (fun i ->
        horizon *. float_of_int (i + 1) /. float_of_int snapshots)
  in
  let dead_at = Array.map (fun _ -> Bitset.create n) times in
  for v = 0 to n - 1 do
    let t = ref 0.0 in
    let alive = ref true in
    let next_snapshot = ref 0 in
    while !next_snapshot < snapshots do
      let rate = if !alive then rate_fail else rate_repair in
      let hold = Dist.exponential rng rate in
      let until = !t +. hold in
      (* record the current state for every snapshot inside [t, until) *)
      while !next_snapshot < snapshots && times.(!next_snapshot) < until do
        if not !alive then Bitset.add dead_at.(!next_snapshot) v;
        incr next_snapshot
      done;
      t := until;
      alive := not !alive
    done
  done;
  Array.to_list
    (Array.mapi
       (fun i dead -> { time = times.(i); faults = Fault_set.of_faulty n dead })
       dead_at)
