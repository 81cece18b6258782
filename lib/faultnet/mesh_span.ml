open Fn_graph
open Fn_topology

type certificate = {
  boundary : Bitset.t;
  virtual_connected : bool;
  tree_nodes : Bitset.t;
  tree_edges : int;
  ratio : float;
}

let spanning_tree_bound b = 2 * (b - 1)

(* Simulate a virtual edge by at most two mesh edges: nodes differing
   in one coordinate are mesh-adjacent; nodes differing diagonally in
   two coordinates route through the intermediate node that shares one
   changed coordinate with each endpoint. *)
let simulate_virtual_edge geo u v =
  let cu = Mesh.decode geo u and cv = Mesh.decode geo v in
  let diff_dims = ref [] in
  Array.iteri (fun i c -> if c <> cv.(i) then diff_dims := i :: !diff_dims) cu;
  match !diff_dims with
  | [ _ ] -> [ (u, v) ]
  | [ i; _ ] ->
    let mid_coords = Array.copy cu in
    mid_coords.(i) <- cv.(i);
    let mid = Mesh.encode geo mid_coords in
    [ (u, mid); (mid, v) ]
  | _ -> invalid_arg "Mesh_span.simulate_virtual_edge: not a virtual edge"

let certify mesh geo s =
  let view = Gview.Csr mesh in
  if not (Compact.is_compact view s) then invalid_arg "Mesh_span.certify: set is not compact";
  let boundary = Boundary.node_boundary view s in
  let b = Bitset.cardinal boundary in
  if b = 0 then None
  else begin
    (* BFS over the virtual graph (B, E_v) *)
    let visited = Bitset.create geo.Mesh.size in
    let start =
      match Bitset.choose boundary with Some v -> v | None -> assert false
    in
    let queue = Queue.create () in
    let parent = Hashtbl.create (2 * b) in
    Bitset.add visited start;
    Queue.add start queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun w ->
          if Bitset.mem boundary w && not (Bitset.mem visited w) then begin
            Bitset.add visited w;
            Hashtbl.add parent w u;
            Queue.add w queue
          end)
        (Mesh.virtual_neighbors geo u)
    done;
    let virtual_connected = Bitset.cardinal visited = b in
    (* expand the virtual spanning tree into mesh edges *)
    let tree_nodes = Bitset.copy boundary in
    let mesh_edges = Hashtbl.create (4 * b) in
    Hashtbl.iter
      (fun child par ->
        List.iter
          (fun (x, y) ->
            Bitset.add tree_nodes x;
            Bitset.add tree_nodes y;
            let key = if x < y then (x, y) else (y, x) in
            Hashtbl.replace mesh_edges key ())
          (simulate_virtual_edge geo child par))
      parent;
    let tree_edges = Hashtbl.length mesh_edges in
    let ratio = float_of_int (Bitset.cardinal tree_nodes) /. float_of_int b in
    Some { boundary; virtual_connected; tree_nodes; tree_edges; ratio }
  end
