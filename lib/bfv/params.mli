(** BFV encryption parameters, SEAL style.

    A parameter set fixes the ring degree n (power of two), the
    coefficient modulus chain q = q_1 ... q_k (distinct NTT-friendly
    primes), the plaintext modulus t and the noise distribution.  The
    paper's target is the smallest SEAL-128 set: n = 1024,
    q = 132120577 (one 27-bit prime), sigma = 3.19 ~ 8/sqrt(2 pi). *)

type t = {
  n : int;  (** polynomial degree *)
  coeff_modulus : int array;  (** RNS prime chain *)
  plain_modulus : int;
  noise : Mathkit.Gaussian.clipped;
}

val create : n:int -> coeff_modulus:int list -> plain_modulus:int -> t
(** Validates: n a power of two, primes distinct/NTT-friendly for n,
    plain modulus > 1 and smaller than every prime.
    @raise Invalid_argument otherwise. *)

val seal_128_1024 : t
(** n = 1024, q = 132120577, t = 1 lsl 8 by SEAL's default small
    plain modulus for this set (256). *)

val toy : unit -> t
(** n = 16 with a small NTT prime; for fast tests. *)

val total_modulus : t -> Mathkit.Bignum.t
(** q as a big integer. *)

val delta : t -> Mathkit.Bignum.t
(** floor(q / t), the plaintext scaling. *)

val delta_mod : t -> int array
(** Delta reduced into each RNS plane. *)

val pp : Format.formatter -> t -> unit
