(** Residue number system over a chain of word-sized primes.

    SEAL represents R_q coefficients for q = q_1 * ... * q_k as k
    residue vectors; Fig. 2's inner loop ("for j < coeff_mod_count")
    writes the sampled noise into every residue plane.  This module
    supplies the CRT glue between residues and the composite modulus
    (a {!Bignum.t}). *)

type t

val create : int list -> t
(** [create primes] builds the basis; primes must be distinct,
    pairwise coprime and each < 2^62.
    @raise Invalid_argument otherwise. *)

val primes : t -> int array
val decompose : t -> Bignum.t -> int array
(** Residues of a value in [\[0, q)]. *)

val compose : t -> int array -> Bignum.t
(** CRT reconstruction into [\[0, q)].
    @raise Invalid_argument on residue-count mismatch. *)

val compose_centered : t -> int array -> Bignum.t * bool
(** CRT value mapped to the centered range: [(magnitude, negative)]. *)
