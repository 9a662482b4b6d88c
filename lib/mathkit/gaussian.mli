(** Gaussian noise samplers.

    The centrepiece is a faithful port of the sampler attacked by the
    paper: SEAL (v3.2) draws doubles from a [std::normal_distribution]
    (Marsaglia polar method, one cached deviate, exactly as libstdc++),
    clips at [max_deviation] by rejection, and rounds to the nearest
    integer.  The polar method's rejection loop is what makes the
    sampler's execution time-variant — the property that forces the
    attack to segment traces by peaks instead of a fixed stride.

    {!cdt_table} is the half-normal table behind the constant-time CDT
    sampler (the design of prior work the paper contrasts with), which
    runs as a firmware variant for the countermeasure study. *)

type polar
(** State of a Marsaglia-polar normal generator (caches the second
    deviate of each generated pair, like libstdc++). *)

val polar : unit -> polar

val polar_pending : polar -> bool
(** Whether a cached deviate will be returned by the next draw. *)

val normal : polar -> Prng.t -> mu:float -> sigma:float -> float
(** One normal deviate. *)

val add_normal : Prng.t -> sigma:float -> float array -> unit
(** Adds [normal p rng ~mu:0.0 ~sigma] to each element in turn, [p] a
    fresh {!polar}: the same bits and draws, without allocating. *)

type clipped = { sigma : float; max_deviation : float }

val seal_default : clipped
(** sigma = 3.19 (8 / sqrt(2 pi)), max_deviation = 6 sigma — SEAL's
    defaults for the BFV error distribution. *)

val clipped_draw : polar -> Prng.t -> clipped -> int * int
(** [(noise, rejections)]: [noise] is the [int64_t noise = dist(engine)]
    of Fig. 2 line 12 — a normal deviate redrawn while its magnitude
    exceeds [max_deviation], then rounded to the nearest integer, so
    always within [-round(max_deviation), round(max_deviation)].
    [rejections] counts every retry the software sampler performs on
    the way (polar-loop rejections plus whole-draw clip retries; 0 when
    the cached deviate is accepted): the time-variant burn the RISC-V
    device replays.  BFV's encryptor and the device's draw queue both
    call this one function. *)

val cdt_table : sigma:float -> tail_cut:float -> float array
(** Cumulative distribution table of the half-normal over magnitudes
    [0 .. round(sigma * tail_cut)]; [Riscv.Sampler_prog.cdt_thresholds]
    scales it into the CDT firmware's threshold table. *)

val cdf : mu:float -> sigma:float -> float -> float

val discrete_probability : sigma:float -> int -> float
(** Probability that the rounded clipped normal equals the given
    integer: cdf mass of [\[z - 1/2, z + 1/2)]. *)
