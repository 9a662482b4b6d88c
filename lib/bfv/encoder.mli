(** Plaintext encoders.

    [Integer]: SEAL's IntegerEncoder with base 2 — an integer's binary
    digits become polynomial coefficients; decoding evaluates the
    polynomial at x = 2 over centered coefficients, so it survives
    homomorphic additions and multiplications as long as coefficients
    stay below the plain modulus.

    [Batch]: SEAL's BatchEncoder — when t = 1 mod 2n, the plaintext
    ring splits into n slots via the NTT mod t; component-wise
    encrypted arithmetic on vectors. *)

val encode_int : Params.t -> int -> Keys.plaintext
(** @raise Invalid_argument for negatives beyond the representable
    range (|value| must fit the degree in base 2). *)

val decode_int : Params.t -> Keys.plaintext -> int

type batch

val batch : Rq.context -> batch option
(** [None] when the plain modulus does not support batching. *)

val batch_slots : batch -> int
val batch_encode : batch -> int array -> Keys.plaintext
val batch_decode : batch -> Keys.plaintext -> int array
