type t = Xoshiro256.t

let of_int64 seed = Xoshiro256.of_seed seed

let create seed = of_int64 (Splitmix64.mix (Int64.of_int seed))

let copy = Xoshiro256.copy

let bits64 = Xoshiro256.next

let split t =
  (* Seed a fresh SplitMix from the parent's output: the child is a
     deterministic function of the parent state and advancing the
     parent decorrelates subsequent splits. *)
  let sm = Splitmix64.create (Xoshiro256.next t) in
  ignore (Splitmix64.next sm);
  Xoshiro256.of_splitmix sm

let split_n t k = Array.init k (fun _ -> split t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* power of two: mask the high-quality low bits of xoshiro** *)
    Int64.to_int (Int64.logand (bits64 t) (Int64.of_int (bound - 1)))
  else begin
    (* rejection sampling on 62-bit values to avoid modulo bias *)
    let mask = 0x3FFF_FFFF_FFFF_FFFFL in
    let limit = Int64.sub mask (Int64.rem mask (Int64.of_int bound)) in
    let rec draw () =
      let v = Int64.logand (bits64 t) mask in
      if Int64.unsigned_compare v limit <= 0 then Int64.to_int (Int64.rem v (Int64.of_int bound))
      else draw ()
    in
    draw ()
  end

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let unit_float t =
  (* 53 high bits -> [0,1) *)
  let v = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float v *. 0x1.0p-53

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n Fun.id in
  shuffle t a;
  a

let sample t n k =
  if k < 0 || k > n then invalid_arg "Rng.sample: need 0 <= k <= n";
  if 4 * k >= n then begin
    (* dense regime: partial Fisher-Yates over an explicit index array *)
    let a = Array.init n Fun.id in
    for i = 0 to k - 1 do
      let j = int_in t i (n - 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 k
  end
  else begin
    (* sparse regime: rejection against a hash set *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
