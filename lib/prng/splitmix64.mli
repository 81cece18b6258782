(** SplitMix64 pseudo-random number generator.

    A small, fast, statistically solid 64-bit generator (Steele, Lea &
    Flood, OOPSLA 2014).  Its main role here is seeding and splitting:
    a single [int64] state yields an arbitrary stream of well-mixed
    64-bit values, which we use to initialise {!Xoshiro256} states and
    to derive independent child generators. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator.  Distinct seeds give
    streams that are, for all practical purposes, independent. *)

val next : t -> int64
(** [next t] advances the state and returns the next 64-bit value. *)

val mix : int64 -> int64
(** [mix z] applies the SplitMix64 finalizer to [z] without any state.
    Useful for hashing small integers into seeds. *)
