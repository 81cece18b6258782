type t = {
  stamp : int array;
  mutable gen : int;
  mutable members : int list; (* reverse mark order *)
  mutable count : int;
  mutable peak : int;
}

let create n =
  if n < 0 then invalid_arg "Dirty.create: negative universe";
  (* gen starts above the zeroed stamps so a fresh tracker is clean *)
  { stamp = Array.make (max 1 n) 0; gen = 1; members = []; count = 0; peak = 0 }

let next_generation t =
  t.gen <- t.gen + 1;
  t.members <- [];
  t.count <- 0

let mark t v =
  if v < 0 || v >= Array.length t.stamp then invalid_arg "Dirty.mark: node out of range";
  if t.stamp.(v) <> t.gen then begin
    t.stamp.(v) <- t.gen;
    t.members <- v :: t.members;
    t.count <- t.count + 1;
    if t.count > t.peak then t.peak <- t.count
  end

let count t = t.count
let peak t = t.peak
let iter t f = List.iter f t.members
