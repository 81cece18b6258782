(** Graph serialization.

    The native format is a plain edge list: a header line
    ["# nodes <n> edges <m>"], then one ["u v"] pair per line.
    Comment lines start with ['#'].  A DOT exporter is provided for
    visual inspection of small graphs. *)

val to_edge_list_string : Graph.t -> string
val of_edge_list_string : string -> Graph.t
(** Raises [Failure] with a line-numbered message on malformed input. *)

val save : string -> Graph.t -> unit
(** Write to a file in edge-list format. *)

val load : string -> Graph.t
