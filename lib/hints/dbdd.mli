(** Distorted Bounded Distance Decoding — "lite" estimator.

    The DBDD framework of Dachman-Soled et al. tracks the ellipsoid
    (mean, covariance) of the secret's distribution alongside the
    embedding lattice; each side-channel hint shrinks the ellipsoid
    (and sometimes the lattice dimension), and the remaining hardness
    is read off the normalised volume through the GSA intersect.

    This implementation is the diagonal ("lite") version: all hints
    produced by the RevEAL attack are per-coordinate (a coefficient of
    e2 is learnt exactly or approximately), for which the covariance
    stays diagonal and every update is O(1) — the same specialisation
    the authors use for their large-dimension figures.  The test suite
    checks it against a full-matrix reference for arbitrary hint
    vectors. *)

type t

val create : Lwe.t -> t
(** Fresh instance: no hints integrated. *)

val dim : t -> int
(** Current embedding dimension (decreases with perfect hints). *)

val logvol : t -> float
(** Normalised log-volume used by the beta estimate. *)

val coordinate_variance : t -> int -> float
(** Current prior variance of a coordinate (error block first, then
    secret block).
    @raise Invalid_argument for integrated-out or out-of-range
    coordinates. *)

val perfect_hint : t -> int -> unit
(** Learn coordinate i exactly: dimension drops by one, volume picks
    up the coordinate's prior stddev.
    @raise Invalid_argument if already integrated out. *)

val approximate_hint : t -> int -> measurement_variance:float -> unit
(** Condition coordinate i on a noisy measurement: variance shrinks
    harmonically, dimension unchanged. *)

val posterior_hint : t -> int -> posterior_variance:float -> unit
(** Replace the coordinate's variance by the posterior variance the
    template attack produced (equivalent to an approximate hint with
    the matching measurement noise).  A posterior no smaller than the
    prior is ignored — a hint may not hurt. *)

val integrated : t -> int
(** Number of perfect hints applied so far. *)

val estimate_bikz : t -> float
(** GSA-intersect block size of the current instance. *)
