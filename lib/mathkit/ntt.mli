(** Negacyclic Number Theoretic Transform.

    Provides O(n log n) multiplication in the ring
    R_q = Z_q[x] / (x^n + 1) for power-of-two n and an NTT-friendly
    prime q (q = 1 mod 2n).  This is the polynomial arithmetic core
    used by the BFV scheme, exactly as SEAL uses David Harvey's NTT. *)

type plan
(** Precomputed twiddle factors for one (q, n) pair. *)

val plan : Modular.modulus -> int -> plan
(** [plan q n] precomputes the transform for ring degree [n] (a power
    of two) and prime modulus [q = 1 mod 2n].
    @raise Invalid_argument if the pair is not NTT-friendly. *)

val modulus : plan -> Modular.modulus

val forward : plan -> int array -> unit
(** In-place forward negacyclic NTT (Cooley–Tukey, bit-reversed
    output folded back to natural order by the matching inverse). *)

val inverse : plan -> int array -> unit
(** In-place inverse transform; [inverse p (forward p a)] restores
    [a]. *)

val multiply : plan -> int array -> int array -> int array
(** Negacyclic product of two degree-n coefficient vectors. *)

val is_friendly : q:int -> n:int -> bool
(** Whether [q] is prime and congruent to 1 mod 2n. *)

val find_prime : n:int -> bits:int -> int
(** An NTT-friendly prime of roughly [bits] bits for degree [n]. *)
