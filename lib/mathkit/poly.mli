(** Polynomials over Z_q in the negacyclic ring R_q = Z_q[x]/(x^n + 1).

    A polynomial is an [int array] of length n with canonical
    coefficients in [\[0, q)].  Functions are written against an
    explicit modulus so the same vectors can live in several residue
    rings (RNS).  Fast products go through {!Ntt.multiply}; the
    schoolbook product here is the test oracle for that path. *)

type t = int array

val zero : int -> t
val is_zero : t -> bool

val of_centered : Modular.modulus -> int array -> t
(** Lift signed coefficients into canonical form. *)

val to_centered : Modular.modulus -> t -> int array
(** Centered representatives in [(-q/2, q/2\]]. *)

val add : Modular.modulus -> t -> t -> t
val neg : Modular.modulus -> t -> t
val scale : Modular.modulus -> int -> t -> t

val mul_schoolbook : Modular.modulus -> t -> t -> t
(** O(n^2) negacyclic product; reference implementation. *)

val uniform : Prng.t -> Modular.modulus -> int -> t
(** Uniform element of R_q. *)

val equal : t -> t -> bool
