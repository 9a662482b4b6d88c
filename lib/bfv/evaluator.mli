(** Homomorphic evaluation (the cloud's side of Fig. 1).

    Additions and plaintext operations are plane-local; ciphertext
    multiplication follows the BFV definition exactly — tensor the
    ciphertext polynomials over the integers, scale by t/q with exact
    rounding, reduce back mod q — so products decrypt correctly
    without relying on double-precision shortcuts.  Products are left
    unrelinearised (three parts); {!Decryptor.decrypt} handles any
    size. *)

val add : Rq.context -> Keys.ciphertext -> Keys.ciphertext -> Keys.ciphertext
val mul_plain : Rq.context -> Keys.ciphertext -> Keys.plaintext -> Keys.ciphertext
(** @raise Invalid_argument on an all-zero plaintext (SEAL does too:
    the result would be a transparent ciphertext). *)

val multiply : Rq.context -> Keys.ciphertext -> Keys.ciphertext -> Keys.ciphertext
(** Tensor product with exact t/q scaling; result has
    size1 + size2 - 1 parts. *)

