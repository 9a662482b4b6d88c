(** Deterministic pseudo-random number generation.

    Every experiment in this repository is driven by an explicit, seeded
    generator so that traces, campaigns and estimator runs are exactly
    reproducible.  The generator is xoshiro256** seeded through
    splitmix64, the de-facto standard pairing recommended by the xoshiro
    authors. *)

type t
(** Mutable generator state. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] builds a fresh generator.  Two generators created
    with the same seed produce identical streams.  Default seed is a
    fixed constant (not time-derived): determinism is a feature here. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split g] derives a new generator from [g]'s stream, advancing [g].
    Streams of [g] and the result are statistically independent. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound] must be
    positive.  Uses rejection sampling: no modulo bias. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val int64_below : t -> int64 -> int64
(** Uniform in [\[0, bound)] for a positive 64-bit bound. *)

val float : t -> float
(** Uniform in [\[0, 1)], 53 bits of precision. *)

val bool : t -> bool
(** Fair coin. *)

val ternary : t -> int
(** Uniform over [{-1; 0; 1}] — the distribution SEAL calls [R_2] and
    uses for secret keys and the encryption sample [u]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val jump : t -> unit
(** Advance the state by 2^128 steps (xoshiro jump polynomial); used to
    carve non-overlapping substreams. *)
