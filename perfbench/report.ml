(* What one workload run hands back to fnbench.ml's main. *)

type t = {
  attempted : int;
  failed : int;  (** attempted ops whose own check failed *)
  checks : (string * bool) list;  (** whole-run oracles (digests, replays) *)
  e2e : (string * float) list;  (** the end-to-end metrics, untraced *)
  layers : (string * float) list;  (** per-layer metrics (filled by traced runs) *)
  counters : (string * string) list;
      (** exact work counters and digests: equal on every run of a seed *)
  notes : (string * float) list;  (** printed beside the metrics, never gated *)
}

(* FNV-style mixing for the benchmark's own digests of results. *)
let mix h x = (h lxor x) * 0x100000001b3
let fnv_init = 0x4bf29ce484222325
let mix_float h f = mix h (Int64.to_int (Int64.bits_of_float f))
let mix_bitset h s = Fn_graph.Bitset.fold (fun v h -> mix h v) s (mix h (-7))
