open Fn_graph
open Fn_prng

type t = { graph : Graph.t; k : int; multiplicity : int }

let node ~k ~level ~row = (level * (1 lsl k)) + row

let build rng ~k ~multiplicity =
  if k < 1 || k > 16 then invalid_arg "Multibutterfly.build: need 1 <= k <= 16";
  if multiplicity < 1 then invalid_arg "Multibutterfly.build: multiplicity >= 1";
  let rows = 1 lsl k in
  let n = (k + 1) * rows in
  let b = Builder.create n in
  for level = 0 to k - 1 do
    (* at level l the rows split into blocks of size 2^(k-l); within a
       block, the nodes whose routing bit is 0 target the lower
       half-block at the next level, bit 1 the upper half-block *)
    let block = 1 lsl (k - level) in
    let half = block / 2 in
    let num_blocks = rows / block in
    for blk = 0 to num_blocks - 1 do
      let base = blk * block in
      (* two splitters per block: sources (all block rows) to each
         half; each splitter is `multiplicity` random surjections
         built from shuffled source lists so in-degrees stay within
         one of each other *)
      List.iter
        (fun target_offset ->
          for _ = 1 to multiplicity do
            let sources = Array.init block (fun i -> base + i) in
            Rng.shuffle rng sources;
            Array.iteri
              (fun i src ->
                let dst = base + target_offset + (i mod half) in
                Builder.add_edge b
                  (node ~k ~level ~row:src)
                  (node ~k ~level:(level + 1) ~row:dst))
              sources
          done)
        [ 0; half ]
    done
  done;
  { graph = Builder.to_graph b; k; multiplicity }
