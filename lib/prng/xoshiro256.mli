(** xoshiro256** pseudo-random number generator.

    Blackman & Vigna's general-purpose 64-bit generator: 256 bits of
    state, period 2^256 - 1, excellent statistical quality.  This is
    the workhorse generator behind {!Rng}. *)

type t
(** Mutable generator state. *)

val of_seed : int64 -> t
(** [of_seed seed] initialises the four state words from a
    {!Splitmix64} stream seeded with [seed], as recommended by the
    authors.  The resulting state is never all-zero. *)

val of_splitmix : Splitmix64.t -> t
(** [of_splitmix sm] draws the four state words from [sm]. *)

val copy : t -> t
(** Independent duplicate of the state. *)

val next : t -> int64
(** [next t] returns the next 64-bit value and advances the state. *)
