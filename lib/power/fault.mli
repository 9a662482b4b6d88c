(** Measurement-fault injection for power traces.

    Real acquisition campaigns fight trigger jitter, dropped or
    duplicated ADC samples, saturation, electrical glitches and slow
    baseline drift.  This module models those faults as a composable,
    seeded corruption pass over a synthesized {!Ptrace.t}, so the
    downstream pipeline can be exercised — and hardened — against the
    same failure modes a SAKURA-G capture exhibits.

    Every channel is independently toggleable; a disabled channel
    consumes no randomness, so two configs that differ only in disabled
    channels corrupt identically.  [apply] at {!none} returns the trace
    unchanged (same array, no RNG draws): the clean pipeline is
    bit-identical to a faultless build. *)

type config = {
  trigger_jitter : int;
      (** Max trigger-offset error in samples; the trace is shifted by a
          uniform offset in [\[-j, j\]] and padded with quiet level. *)
  drop_rate : float;  (** Per-sample probability the ADC drops a sample. *)
  dup_rate : float;  (** Per-sample probability a sample is duplicated. *)
  clip_fraction : float;
      (** Fraction of the dynamic range (from the top) clipped away, as
          if the scope's vertical scale saturated: 0.35 clips everything
          above lo + 0.65 * (hi - lo). *)
  glitch_rate : float;  (** Expected glitch bursts per 1000 samples. *)
  glitch_amplitude : float;  (** Additive amplitude of each glitch burst. *)
  glitch_width : int;  (** Samples per glitch burst. *)
  drift_amplitude : float;  (** Peak baseline drift added to the trace. *)
  drift_period : int;  (** Samples per full drift oscillation. *)
}

val none : config
(** All channels disabled. *)

val full : config
(** Reference intensity-1 fault load: severe but survivable. *)

val is_noop : config -> bool
(** True when every channel is disabled — [apply] would be the
    identity. *)

val of_intensity : float -> config
(** Linear scale between {!none} (0.0) and {!full} (1.0); intensities
    above 1.0 extrapolate.  Negative intensities are clamped to 0. *)

val apply : rng:Mathkit.Prng.t -> config -> Ptrace.t -> Ptrace.t
(** Corrupt a trace.  Stage order: baseline drift, glitch bursts,
    clipping, drop/duplication, trigger jitter.  Disabled stages are
    skipped entirely and draw no randomness.  The result is a fresh
    array ({!apply_into} with [into = Array.create_float]), except at
    a no-op config, which returns [t] itself. *)

val apply_into :
  rng:Mathkit.Prng.t -> config -> float array -> len:int -> into:(int -> float array) -> float array * int
(** [apply_into ~rng c src ~len ~into] is the fault pass over the
    first [len] samples of [src], which it only reads.  It calls
    [into m] once, with the corrupted trace's exact length [m], writes
    the trace into the first [m] elements of the array [into] returns
    (at least [m] long), and returns that array and [m].  The draws
    and bits are {!apply}'s, whatever [into] returns.
    @raise Invalid_argument unless [0 <= len <= Array.length src]. *)
