open Fn_graph
open Fn_prng

(** Topology specs: the one parser behind [faultnet_cli --topology]
    and [faultnetd --topology].

    A spec is a family name and its colon-separated parameters:
    [mesh:8x8], [torus:16x16], [hypercube:10], [butterfly:4],
    [debruijn:8], [shuffle:8], [complete:64], [cycle:100],
    [expander:256:6], [margulis:16], [chain:64:4:8] (a k-chain over a
    random n-node d-regular base) and [can:2:256] (a d-dimensional CAN
    overlay of n peers) build a CSR graph; [itorus:AxB], [imesh:AxB]
    and [ihypercube:d] build implicit views that scale to 10^6+ nodes
    without storing an edge set. *)

val families : string
(** One example spec per family, space-separated, for usage texts. *)

val view : Rng.t -> string -> (Gview.t, string) result
(** [view rng spec] builds the topology [spec] names.  Every parameter
    must be a positive int ([AxB] dims: positive ints joined by [x]).
    An unknown family, a malformed parameter, or a combination the
    generator refuses (an odd [n*d] expander, [cycle:2]) is an
    [Error] with a one-line message; nothing raises.  [rng] only feeds
    the randomized families (expander, chain, can). *)
