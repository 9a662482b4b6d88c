(** BFV key generation.

    SecretKeyGen: s <- R_2 (ternary).
    PublicKeyGen: a <- R_q uniform, e <- chi;
    pk = ( [-(a s + e)]_q , a ). *)

val secret_key : Mathkit.Prng.t -> Rq.context -> Keys.secret_key

val public_key : Mathkit.Prng.t -> Rq.context -> Keys.secret_key -> Keys.public_key
(** Uses the v3.2 noise sampler, like the encryptor. *)
