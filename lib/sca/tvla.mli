(** Test Vector Leakage Assessment (Welch's t-test).

    The standard non-specific leakage methodology (Goodwill et al.):
    capture one set of traces with a *fixed* sensitive value and one
    with *random* values; a per-sample Welch t-statistic beyond |4.5|
    flags data-dependent leakage with high confidence.  Used here to
    certify which firmware variants leak where — including showing
    that the v3.6-style branchless sampler still fails TVLA (its mask
    arithmetic is data-dependent), supporting the paper's Section V-A
    remark. *)

val t_statistics : float array array -> float array array -> float array
(** [t_statistics fixed random]: per-sample Welch t between the two
    trace sets (rows = traces).
    @raise Invalid_argument on ragged input or sets smaller than 2. *)

val threshold : float
(** The conventional 4.5 pass/fail level. *)

val leaky_points : float array -> int array
(** Sample indices whose |t| exceeds {!threshold}. *)

val max_abs_t : float array -> float
(** Largest |t| — the single-number verdict. *)

val second_order : float array array -> float array array -> float array
(** Second-order TVLA: t-test on centred-squared traces, the standard
    check against masking-style countermeasures. *)
