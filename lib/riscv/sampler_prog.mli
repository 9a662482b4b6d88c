(** SEAL's noise sampler as an RV32IM program.

    This is the Fig. 2 code of the paper —
    [Encryptor::set_poly_coeffs_normal] of SEAL v3.2 — compiled by hand
    to the instruction stream a RISC-V toolchain produces for it:

    - the outer loop samples [coeff_count] coefficients;
    - each sample is a 64-bit [noise] (register pair, low word plus
      sign extension);
    - the [if (noise > 0) / else if (noise < 0) / else] ladder executes
      three distinct code paths (vulnerability 1);
    - the value assignment moves [noise] through registers and the
      memory bus (vulnerability 2);
    - the negative path executes a 64-bit two's-complement negation
      before storing [modulus - noise] into every RNS plane
      (vulnerability 3).

    The clipped-normal draw itself ([dist(engine)] in Fig. 2) is
    delegated to a memory-mapped entropy/accelerator port: the host
    pre-samples the values with {!Mathkit.Gaussian} and replays, per
    draw, the exact number of Marsaglia-polar rejections the software
    sampler performed, as a data-independent burn loop dominated by
    [divu] (38-cycle, high-power) instructions.  This keeps the
    time-variant execution profile — and therefore the segmentation
    problem the paper solves with peak detection — while avoiding a
    soft-float library whose leakage we could not validate.  The
    substitution is recorded in DESIGN.md. *)

type variant =
  | Vulnerable  (** SEAL v3.2: the if/elseif/else ladder of Fig. 2 *)
  | Branchless  (** SEAL v3.6-style: mask arithmetic, no secret-dependent branch *)
  | Shuffled  (** v3.2 ladder but coefficients sampled in a host-supplied random order *)
  | Cdt_table
      (** constant-time CDT sampler (the design of the prior work the
          paper contrasts with, [10]/[12]): a fixed-length scan of a
          cumulative-distribution table accumulates the magnitude
          without data branches, then a sign branch negates — the
          residual leak those papers attack *)

type layout = {
  ram_size : int;
  poly_base : int;  (** uint64 array, coeff_count * coeff_mod_count entries *)
  moduli_base : int;  (** uint64 array, coeff_mod_count entries *)
  perm_base : int;  (** uint32 array, coeff_count entries (Shuffled only) *)
}

val default_layout : layout

val build : ?variant:variant -> n:int -> k:int -> unit -> Asm.program
(** Assemble the sampler for [n] coefficients and [k] RNS primes, at
    byte address 0.  Labels of interest:
    ["outer_loop"], ["dist"], ["pos_branch"], ["neg_branch"],
    ["zero_branch"], ["next_i"], ["finish"]. *)

val noise_port : int
(** MMIO address the program loads each accepted noise value from. *)

val uniform_port : int
(** MMIO address the CDT firmware reads its 31-bit uniform word from. *)

val sign_port : int
(** MMIO address the CDT firmware reads the sign coin from (0 or 1). *)

val install_cdt_port : Memory.t -> draws:(int * int) array -> unit
(** [install_cdt_port mem ~draws] with [draws.(i) = (uniform31, sign)];
    wires the CDT firmware's two entropy ports. *)

val cdt_entries : int
(** Number of thresholds the firmware scans (covers magnitudes
    0..cdt_entries). *)

val cdt_base : int
(** RAM address of the staged threshold table. *)

val stage_cdt_table : Memory.t -> int array -> unit
(** Write the scaled (31-bit) cumulative thresholds at {!cdt_base},
    where the CDT firmware reads them whatever the layout.
    @raise Invalid_argument unless exactly {!cdt_entries} values. *)

val cdt_thresholds : sigma:float -> int array
(** 31-bit scaled thresholds of the half-normal CDF: the firmware's
    magnitude for uniform u is the number of thresholds <= u. *)

val cdt_draws_of_gaussian : Mathkit.Prng.t -> sigma:float -> count:int -> (int * int) array * int array
(** Entropy queue for the CDT firmware plus the ground-truth signed
    values it will produce (host replica of the scan). *)

val cdt_force_draw : Mathkit.Prng.t -> sigma:float -> value:int -> int * int
(** A (uniform, sign) entropy pair that makes the firmware produce
    exactly [value] — how profiling "configures" a CDT device.
    @raise Invalid_argument when the CDF band for |value| is empty at
    31-bit resolution. *)

val install_noise_port : Memory.t -> draws:(int * int) array -> unit
(** [install_noise_port mem ~draws] wires the MMIO handler;
    [draws.(i) = (noise, rejections)].  Reading more draws than
    provided raises [Invalid_argument]. *)

val stage_moduli : Memory.t -> layout -> int array -> unit
(** Write the coefficient-modulus chain (each < 2^62) into RAM. *)

val stage_permutation : Memory.t -> layout -> int array -> unit
(** Write the sampling-order permutation (Shuffled variant). *)

val read_poly : Memory.t -> layout -> n:int -> k:int -> int array array
(** [read_poly mem l ~n ~k] returns [k] rows of [n] coefficients, the
    contents the program stored (RNS plane-major, like SEAL). *)

val draws_of_gaussian :
  Mathkit.Prng.t -> Mathkit.Gaussian.clipped -> count:int -> (int * int) array * int array
(** Pre-sample [count] draws with {!Mathkit.Gaussian.clipped_draw},
    the draw BFV's encryptor makes; returns the MMIO queue and the
    plain noise values (ground truth for profiling). *)
