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

val encrypt : Mathkit.Prng.t -> Rq.context -> Keys.public_key -> Keys.plaintext -> Keys.ciphertext * randomness
(** Samples [e1] and [e2] with the vulnerable v3.2 sampler
    ({!Sampler.set_poly_coeffs_normal_v32}).  The countermeasures the
    paper compares it with run as firmware variants
    ([Riscv.Sampler_prog.Branchless] and [Cdt_table]). *)

val encrypt_with : Rq.context -> Keys.public_key -> Keys.plaintext -> randomness -> Keys.ciphertext
(** Deterministic encryption from explicit randomness — used to tie
    host encryption to the device simulation (same e1/e2) and by
    tests. *)
