(** Packed bit sets over a fixed universe [0 .. n-1].

    Used throughout faultnet as node masks: alive/faulty markers, cut
    sides, visited sets.  All operations are bounds-checked against
    the universe size. *)

type t

val create : int -> t
(** [create n] is the empty set over universe size [n]. *)

val create_full : int -> t
(** [create_full n] contains all of [0 .. n-1]. *)

val universe : t -> int
(** Universe size [n]. *)

val copy : t -> t

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val set : t -> int -> bool -> unit

val cardinal : t -> int
(** Number of members; O(words), one constant-time popcount per
    word. *)

val select : t -> int -> int
(** [select t r] is the member of rank [r] (0-based, increasing
    order): [(to_array t).(r)] without building the array.  O(words):
    whole words are skipped by their popcount.  Raises
    [Invalid_argument] unless [0 <= r < cardinal t]. *)

val is_empty : t -> bool

val clear : t -> unit
(** Remove all members. *)

val fill : t -> unit
(** Add all of [0 .. n-1]. *)

val iter : (int -> unit) -> t -> unit
(** Iterate members in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
val to_array : t -> int array
val of_list : int -> int list -> t
val of_array : int -> int array -> t

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst := dst ∪ src].  Same universe. *)

val inter_into : t -> t -> unit
(** [dst := dst ∩ src]. *)

val diff_into : t -> t -> unit
(** [dst := dst \ src]. *)

val complement : t -> t
(** Fresh set equal to [0..n-1] \ t. *)

val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b] is true iff every member of [a] is in [b]. *)

val disjoint : t -> t -> bool

val choose : t -> int option
(** Smallest member, if any; O(words). *)

val next_member : t -> int -> int option
(** [next_member t i] is the smallest member >= [i], if any; O(words)
    from the word containing [i].  Lets callers scan members in
    ascending order while skipping some — resume with [i = v + 1] —
    without the closure-and-exception cost of {!iter}.  Requires
    [i >= 0]; any [i >= n] yields [None]. *)

val pp : Format.formatter -> t -> unit
