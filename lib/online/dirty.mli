(** Generation-stamped dirty frontier.

    Tracks the set of nodes whose cached certificate state must be
    refreshed after a churn batch.  Clearing is O(1) — bump the
    generation — so a long-lived engine pays per batch only for the
    nodes it actually dirties, never an O(n) sweep.  Membership is a
    stamp comparison; marks are deduplicated within a generation. *)

type t

val create : int -> t
(** [create n] tracks nodes in universe [0 .. n-1], all clean. *)

val next_generation : t -> unit
(** Forget every mark, O(1). *)

val mark : t -> int -> unit

val count : t -> int
(** Marks in the current generation. *)

val peak : t -> int
(** Largest single-generation mark count seen — the dirty-region high
    water mark the engine reports in stats. *)

val iter : t -> (int -> unit) -> unit
(** Visit the current generation's marks.  Order is deterministic
    (reverse mark order) but not sorted; callers needing a canonical
    order must sort. *)
