(** Polynomials over Z_q in the negacyclic ring R_q = Z_q[x]/(x^n + 1).

    A polynomial is an [int array] of length n with canonical
    coefficients in [\[0, q)].  Functions are written against an
    explicit modulus so the same vectors can live in several residue
    rings (RNS).  Fast products go through {!Ntt.multiply}; the
    schoolbook product here is the test oracle for that path. *)

type t = int array

val zero : int -> t

val mul_schoolbook : Modular.modulus -> t -> t -> t
(** O(n^2) negacyclic product; reference implementation. *)

val uniform : Prng.t -> Modular.modulus -> int -> t
(** Uniform element of R_q. *)

val equal : t -> t -> bool
