(** Gaussian noise samplers.

    The centrepiece is a faithful port of the sampler attacked by the
    paper: SEAL (v3.2) draws doubles from a [std::normal_distribution]
    (Marsaglia polar method, one cached deviate, exactly as libstdc++),
    clips at [max_deviation] by rejection, and rounds to the nearest
    integer.  The polar method's rejection loop is what makes the
    sampler's execution time-variant — the property that forces the
    attack to segment traces by peaks instead of a fixed stride.

    A constant-time CDT sampler (the design of prior work the paper
    contrasts with) and a centered-binomial sampler are provided as
    baselines and for the countermeasure study. *)

type polar
(** State of a Marsaglia-polar normal generator (caches the second
    deviate of each generated pair, like libstdc++). *)

val polar : unit -> polar

val polar_pending : polar -> bool
(** Whether a cached deviate will be returned by the next draw. *)

val normal : polar -> Prng.t -> mu:float -> sigma:float -> float
(** One normal deviate. *)

val normal_rejections : polar -> Prng.t -> mu:float -> sigma:float -> float * int
(** Deviate plus the number of polar-loop rejections it cost (0 when
    the cached value is used); exposed so the RISC-V model can replay
    the exact same control flow. *)

type clipped = { sigma : float; max_deviation : float }

val seal_default : clipped
(** sigma = 3.19 (8 / sqrt(2 pi)), max_deviation = 6 sigma — SEAL's
    defaults for the BFV error distribution. *)

val sample_noise : polar -> Prng.t -> clipped -> int
(** [round(clipped_normal ...)] — the [int64_t noise] of Fig. 2
    line 12.  Always within [-round(max_deviation),
    round(max_deviation)]. *)

val cdt_table : sigma:float -> tail_cut:float -> float array
(** Cumulative distribution table of the half-normal, for the CDT
    baseline sampler. *)

val sample_cdt : Prng.t -> float array -> int
(** Constant-table sampler over the CDT (sign drawn separately). *)

val sample_binomial : Prng.t -> k:int -> int
(** Centered binomial with parameter k: sum of k coin differences. *)

val cdf : mu:float -> sigma:float -> float -> float

val discrete_probability : sigma:float -> int -> float
(** Probability that the rounded clipped normal equals the given
    integer: cdf mass of [\[z - 1/2, z + 1/2)]. *)
