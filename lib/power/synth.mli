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
(** [Leakage.default], 2 samples/cycle, noise sigma 0.17. *)

val quiet : config
(** Noise-free variant, used by unit tests and the figure benches. *)

(** {1 Streaming synthesis}

    Synthesis as instructions retire: {!feed} is a {!Riscv.Cpu}
    tracer that keeps what the trace needs of each event (its two
    power levels and its latency) in unboxed columns, and {!finish}
    writes the samples.  No event record is kept, and the trace does
    not record where each instruction starts. *)

type acc
(** The columns of the events fed so far. *)

val accumulator : ?rng:Mathkit.Prng.t -> config -> acc
(** An empty accumulator.  Noise is drawn from [rng] at {!finish};
    omitting it with a nonzero [noise_sigma] is an error — determinism
    must be explicit.
    @raise Invalid_argument on a missing rng or a non-positive
    [samples_per_cycle]. *)

val feed : acc -> Riscv.Trace.event -> unit
(** Append one retired instruction. *)

val finish : acc -> Ptrace.t
(** The trace of every event fed, in order: pulse-shaped levels, then
    the noise.  Call it once. *)

val synthesize : ?rng:Mathkit.Prng.t -> config -> Riscv.Trace.event array -> Ptrace.t
(** [feed] every event to a fresh [accumulator ?rng config], then
    [finish]. *)
