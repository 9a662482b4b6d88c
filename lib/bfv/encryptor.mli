(** BFV encryption (the paper's eq. 1).

    (c0, c1) = ( [Delta m + p0 u + e1]_q , [p1 u + e2]_q )
    with u <- R_2 and e1, e2 <- chi via the v3.2 Gaussian sampler —
    the operation the side-channel attack observes. *)

type randomness = {
  u : Rq.t;
  e1 : Rq.t;
  e2 : Rq.t;
  e1_log : Sampler.draw_log;
  e2_log : Sampler.draw_log;
}
(** Everything fresh the encryptor sampled; ground truth for the
    attack experiments (a real adversary never sees it). *)

type variant = V32 | V36 | Cdt

val encrypt :
  ?variant:variant ->
  Mathkit.Prng.t ->
  Rq.context ->
  Keys.public_key ->
  Keys.plaintext ->
  Keys.ciphertext * randomness
(** Default variant: the vulnerable [V32]. *)

val encrypt_with : Rq.context -> Keys.public_key -> Keys.plaintext -> randomness -> Keys.ciphertext
(** Deterministic encryption from explicit randomness — used to tie
    host encryption to the device simulation (same e1/e2) and by
    tests. *)
