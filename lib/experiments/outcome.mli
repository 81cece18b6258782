(** Result envelope shared by all experiments. *)

type t = {
  id : string;  (** "E1" ... "E10" *)
  title : string;
  table : Fn_stats.Table.t;
  checks : (string * bool) list;  (** named pass/fail assertions *)
  notes : string list;
}

val all_passed : t -> bool

val render : t -> string
(** Title, table, check list, notes — ready to print. *)

val to_json : t -> string
(** One compact JSON object:
    [{"id":...,"title":...,"passed":...,
      "table":{"headers":[...],"rows":[[...],...]},
      "checks":[{"name":...,"ok":...},...],"notes":[...]}]
    — the payload behind [bin/experiments.exe --json]. *)

val to_jsonx : t -> Fn_obs.Jsonx.t
(** {!to_json} before rendering — the form stored in resume journals. *)

val of_jsonx : Fn_obs.Jsonx.t -> t option
(** Inverse of {!to_jsonx}.  Outcomes contain only strings and
    booleans, so the round-trip is exact; [None] on any malformed or
    foreign JSON. *)
