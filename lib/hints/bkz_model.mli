(** BKZ cost model: root Hermite factor and GSA-intersect block size.

    Follows the methodology of Dachman-Soled et al. (CRYPTO 2020,
    "LWE with side information"), whose framework the paper applies:
    the hardness of the hint-reduced DBDD instance is reported as the
    BKZ block size beta ("bikz") at which the Geometric Series
    Assumption predicts the projected secret becomes the shortest
    vector in the last block. *)

val delta : float -> float
(** Root Hermite factor delta(beta).  Uses the asymptotic
    ((beta/2 pi e)(pi beta)^(1/beta))^(1/(2(beta-1))) for beta >= 40
    and an experimental interpolation table below. *)

val beta_for : d:int -> logvol:float -> float
(** Smallest (fractional) block size at which the GSA-intersect
    condition [sqrt(beta) <= delta(beta)^(2 beta - d - 1) *
    exp(logvol / d)] holds, for an isotropised instance of dimension
    [d] with normalised log-volume [logvol] (natural log).  Returns
    2.0 when the instance is already trivially solvable and
    [float_of_int d] when no block size suffices. *)

val security_bits : float -> float
(** Paper's conversion: bikz / 2.98 bits (Section IV-C footnote:
    382.25 bikz corresponds to 128-bit security). *)

val cost_summary : float -> (string * float) list
(** All three bit-security conversions of one block size, labelled. *)
