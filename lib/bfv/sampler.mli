(** Port of SEAL's noise-polynomial sampler (Fig. 2 of the paper).

    [set_poly_coeffs_normal_v32] is a line-for-line OCaml rendering of
    the vulnerable SEAL v3.2 routine: draw a clipped normal, then
    assign through the [if (noise > 0) / else if (noise < 0) / else]
    ladder — positive values are stored directly, negatives are
    negated and subtracted from each plane's modulus, zero is stored
    as zero.  The RISC-V program in [Riscv.Sampler_prog] implements
    the same routine at ISA level.  Both draw through
    {!Mathkit.Gaussian.clipped_draw}, and 'sampler v3.2 = the device's
    draw queue and firmware' ([test/test_bfv.ml]) pins the two to each
    other: same noises and rejection counts from one seed, same
    polynomial out of the firmware.

    The countermeasures the paper compares it with — SEAL v3.6's
    branch-free assignment and a constant-time CDT sampler — run as
    firmware variants of [Riscv.Sampler_prog]. *)

type draw_log = {
  noises : int array;  (** the sampled (signed) coefficients, in order *)
  rejections : int array;  (** polar + clip rejections per draw *)
}
(** Ground truth exposed for profiling and for driving the device
    simulation with identical randomness. *)

val set_poly_coeffs_normal_v32 : Mathkit.Prng.t -> Rq.context -> Rq.t * draw_log

val of_noises : Rq.context -> int array -> Rq.t
(** Assignment ladder only, on given noise values (the deterministic
    tail of the v3.2 routine). *)
