type t = { n : int; words : int array }

let bits_per_word = 63 (* OCaml native ints *)

let word_count n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative universe";
  { n; words = Array.make (max 1 (word_count n)) 0 }

let universe t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of universe"

(* Mask of valid bits in the last word, to keep complement/cardinal
   exact.  A full 63-bit word is [-1] (all bits set in a native int). *)
let last_mask t =
  let r = t.n mod bits_per_word in
  if r = 0 && t.n > 0 then -1 else (1 lsl r) - 1

let fill t =
  if t.n = 0 then Array.fill t.words 0 (Array.length t.words) 0
  else begin
    Array.fill t.words 0 (Array.length t.words) (-1);
    let wc = word_count t.n in
    t.words.(wc - 1) <- last_mask t;
    for w = wc to Array.length t.words - 1 do
      t.words.(w) <- 0
    done
  end

let create_full n =
  let t = create n in
  fill t;
  t

let copy t = { n = t.n; words = Array.copy t.words }

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let set t i b = if b then add t i else remove t i

(* SWAR bit count of a 63-bit word: 2-, 4- and 8-bit partial sums, then
   one multiply adds the eight byte counts into the top byte.  Bit 62
   (the sign bit) pairs with nothing; [lsr] moves it down like any
   other, and a count of at most 63 fits the top byte's 7 bits. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* Index of the lowest set bit of a non-zero word, by halving: six
   tests whatever the bit, where a shift loop takes up to 62 steps.
   Bit 62 is the sign bit; [lsr] shifts it down like any other. *)
let lowest_bit_index w =
  let w = ref w and k = ref 0 in
  if !w land 0xFFFF_FFFF = 0 then begin
    w := !w lsr 32;
    k := 32
  end;
  if !w land 0xFFFF = 0 then begin
    w := !w lsr 16;
    k := !k + 16
  end;
  if !w land 0xFF = 0 then begin
    w := !w lsr 8;
    k := !k + 8
  end;
  if !w land 0xF = 0 then begin
    w := !w lsr 4;
    k := !k + 4
  end;
  if !w land 0x3 = 0 then begin
    w := !w lsr 2;
    k := !k + 2
  end;
  if !w land 0x1 = 0 then !k + 1 else !k

let select t r =
  if r < 0 then invalid_arg "Bitset.select: negative rank";
  (* skip whole words by their counts, then clear the word's lowest
     bits until the wanted one is lowest *)
  let rec skip w r =
    if w >= Array.length t.words then invalid_arg "Bitset.select: rank beyond cardinal"
    else
      let c = popcount t.words.(w) in
      if r < c then begin
        let word = ref t.words.(w) in
        for _ = 1 to r do
          word := !word land (!word - 1)
        done;
        (w * bits_per_word) + lowest_bit_index !word
      end
      else skip (w + 1) (r - c)
  in
  skip 0 r

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) in
    let base = w * bits_per_word in
    while !word <> 0 do
      f (base + lowest_bit_index !word);
      word := !word land (!word - 1)
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let to_array t =
  let out = Array.make (cardinal t) 0 in
  let k = ref 0 in
  iter
    (fun i ->
      out.(!k) <- i;
      incr k)
    t;
  out

let of_list n xs =
  let t = create n in
  List.iter (add t) xs;
  t

let of_array n xs =
  let t = create n in
  Array.iter (add t) xs;
  t

let same_universe a b =
  if a.n <> b.n then invalid_arg "Bitset: universe mismatch"

let union_into dst src =
  same_universe dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let inter_into dst src =
  same_universe dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land src.words.(w)
  done

let diff_into dst src =
  same_universe dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land lnot src.words.(w)
  done

let complement t =
  let out = create_full t.n in
  diff_into out t;
  out

let equal a b =
  same_universe a b;
  Array.for_all2 ( = ) a.words b.words

let subset a b =
  same_universe a b;
  let ok = ref true in
  for w = 0 to Array.length a.words - 1 do
    if a.words.(w) land lnot b.words.(w) <> 0 then ok := false
  done;
  !ok

let disjoint a b =
  same_universe a b;
  let ok = ref true in
  for w = 0 to Array.length a.words - 1 do
    if a.words.(w) land b.words.(w) <> 0 then ok := false
  done;
  !ok

let next_member t i =
  if i < 0 then invalid_arg "Bitset.next_member: negative start";
  if i >= t.n then None
  else begin
    let wc = word_count t.n in
    let w0 = i / bits_per_word in
    (* mask off the bits below [i] in the first word, then scan *)
    let rec scan w masked =
      if w >= wc then None
      else
        let word = if masked then t.words.(w) land lnot ((1 lsl (i mod bits_per_word)) - 1) else t.words.(w) in
        if word = 0 then scan (w + 1) false
        else Some ((w * bits_per_word) + lowest_bit_index word)
    in
    scan w0 true
  end

let choose t =
  let found = ref None in
  (try
     iter
       (fun i ->
         found := Some i;
         raise Exit)
       t
   with Exit -> ());
  !found

let pp fmt t =
  Format.fprintf fmt "{";
  let first = ref true in
  iter
    (fun i ->
      if !first then first := false else Format.fprintf fmt ", ";
      Format.fprintf fmt "%d" i)
    t;
  Format.fprintf fmt "}"
