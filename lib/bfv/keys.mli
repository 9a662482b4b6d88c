(** Key material and ciphertexts. *)

type secret_key = { s : Rq.t }
type public_key = { p0 : Rq.t; p1 : Rq.t }
(** pk = ( [-(a s + e)]_q , a ). *)

type ciphertext = { parts : Rq.t array }
(** Fresh ciphertexts have two parts; unrelinearised products grow. *)

type plaintext = { coeffs : int array }
(** Coefficients in [0, plain_modulus). *)

val ciphertext_size : ciphertext -> int

val plaintext_of_coeffs : Params.t -> int array -> plaintext
(** Validates range. *)

val plaintext_equal : plaintext -> plaintext -> bool
