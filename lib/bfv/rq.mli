(** Elements of R_q in RNS representation.

    An element is stored as one residue plane per prime of the
    modulus chain, exactly like SEAL's [poly] buffers (and like the
    layout the RISC-V sampler program writes).  A [context] carries
    the precomputed NTT plans and the RNS basis for a parameter
    set — build it once, thread it everywhere. *)

type context

val context : Params.t -> context
val params : context -> Params.t
val moduli : context -> Mathkit.Modular.modulus array
val rns : context -> Mathkit.Rns.t

type t = { planes : int array array }
(** planes.(j).(i) = coefficient i in plane j, canonical in [0, q_j). *)

val zero : context -> t
val copy : t -> t
val of_planes : context -> int array array -> t
(** Validates shape and ranges. *)

val of_centered : context -> int array -> t
(** Lift small signed coefficients into every plane — what Fig. 2's
    inner loop does with the sampled noise. *)

val to_centered_bignum : context -> t -> (Mathkit.Bignum.t * bool) array
(** CRT-compose each coefficient to (magnitude, negative) pairs. *)

val to_centered_small : context -> t -> int array
(** Centered representatives that fit native ints.
    @raise Failure when a coefficient exceeds the native range. *)

val add : context -> t -> t -> t
val sub : context -> t -> t -> t
val neg : context -> t -> t
val mul : context -> t -> t -> t
(** Negacyclic product, NTT per plane. *)

val mul_scalar_planes : context -> int array -> t -> t
(** Multiply plane j by a per-plane scalar (e.g. Delta mod q_j). *)

val uniform : Mathkit.Prng.t -> context -> t
val ternary : Mathkit.Prng.t -> context -> t
val equal : t -> t -> bool

val invert : context -> t -> t option
(** Multiplicative inverse when every NTT coefficient is nonzero in
    every plane ([None] otherwise) — used by the attack algebra to
    divide by p_1. *)
