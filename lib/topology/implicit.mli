open Fn_graph

(** Implicit (generator-defined) topologies.

    Each function returns a {!Gview.t} whose [Implicit] arm computes
    neighbors by coordinate / bit arithmetic — no edge set is stored,
    so these scale to n = 10^7 and beyond while the materializing
    constructors in this directory cap out around 10^5.  Every
    generator agrees {e edge-for-edge} with its materializing twin
    ([Mesh.graph], [Torus.graph], [Hypercube.graph],
    [Butterfly.unwrapped]/[wrapped], [Debruijn.graph],
    [Chain_graph.build]) — the property tests assert
    [Graph.equal (materialize (gen ...)) (twin ...)] across a size
    sweep. *)

val mesh : int array -> Gview.t
(** [mesh dims]: the d-dimensional grid of [Mesh.graph dims] (no
    wraparound), row-major ids.  The [dims] array is copied. *)

val torus : int array -> Gview.t
(** [torus dims]: wraparound grid of [Torus.graph dims]; sides of 2
    contribute a single (deduplicated) ring edge, sides of 1 none. *)

val hypercube : int -> Gview.t
(** [hypercube d]: the d-cube on [2^d] nodes of [Hypercube.graph]. *)
