type t = {
  parent : int array;
  sz : int array;
  mutable max_size : int;
  mutable components : int;
}

let create n =
  if n < 0 then invalid_arg "Union_find.create: negative size";
  {
    parent = Array.init n Fun.id;
    sz = Array.make n 1;
    max_size = (if n = 0 then 0 else 1);
    components = n;
  }

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let root = find t p in
    t.parent.(x) <- root;
    root
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let ra, rb = if t.sz.(ra) >= t.sz.(rb) then (ra, rb) else (rb, ra) in
    t.parent.(rb) <- ra;
    t.sz.(ra) <- t.sz.(ra) + t.sz.(rb);
    if t.sz.(ra) > t.max_size then t.max_size <- t.sz.(ra);
    t.components <- t.components - 1;
    true
  end

let max_component_size t = t.max_size
