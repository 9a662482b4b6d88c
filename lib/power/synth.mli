(** Trace synthesis: architectural events -> oscilloscope samples.

    Each instruction contributes [cycles * samples_per_cycle] samples:
    the first cycle carries the data-dependent power (operands live on
    the buses, the register file is written), later cycles the base
    residual.  Within a cycle the pulse is shaped (rise then fall) so
    that upsampled traces look like real shunt-resistor measurements.
    Additive white Gaussian noise models the measurement chain; its
    sigma is the experiment knob for the noise-sweep ablation. *)

type config = {
  model : Leakage.t;
  samples_per_cycle : int;
  noise_sigma : float;  (** stddev of the additive measurement noise *)
}

val default : config
(** [Leakage.default], 2 samples/cycle, noise sigma 0.35. *)

val quiet : config
(** Noise-free variant, used by unit tests and the figure benches. *)

val synthesize : ?rng:Mathkit.Prng.t -> config -> Riscv.Trace.event array -> Ptrace.t
(** Noise is drawn from [rng]; omitting it with a nonzero
    [noise_sigma] is an error — determinism must be explicit. *)
