(** Arbitrary-precision natural numbers.

    A small, dependency-free bignum used where products of several
    RNS primes exceed the 62-bit word budget: CRT reconstruction of
    multi-prime ciphertext moduli, Delta = floor(q/t), and the
    rounded division in BFV decryption.  Values are immutable arrays
    of 31-bit limbs, little-endian, without leading zero limbs. *)

type t

val zero : t
val one : t
val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int
(** @raise Failure if the value does not fit a native int. *)

val to_int_opt : t -> int option
val of_string : string -> t
(** Decimal digits only. *)

val to_string : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val add : t -> t -> t

val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t
val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)].
    @raise Division_by_zero on zero divisor. *)

val div : t -> t -> t
val rem : t -> t -> t
val mod_int : t -> int -> int
val shift_left : t -> int -> t
val shift_right : t -> int -> t
val bits : t -> int
(** Bit length; [bits zero = 0]. *)

val round_div : t -> t -> t
(** [round_div a b] is [round(a / b)] with ties rounded up — the
    rounding BFV decryption uses. *)

val log2 : t -> float
(** Floating-point base-2 logarithm (for security-size arithmetic). *)
