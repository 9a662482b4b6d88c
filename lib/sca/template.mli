(** Multivariate Gaussian template attack (Chari et al., CHES 2002).

    Profiling: for every candidate secret (here, every sampled
    coefficient value) record many POI vectors, store the class mean,
    and pool the covariance across classes (the noise is
    class-independent, and pooling is what makes 29-class templates
    feasible from modest trace counts).  Matching: score a measured
    vector by Gaussian log-likelihood under each template, optionally
    weighted by the class prior, and either pick the argmax or return
    the whole posterior — the posterior feeds the LWE-hint machinery
    of Section IV-C. *)

type t = private {
  labels : int array;  (** class labels, e.g. coefficient values *)
  means : float array array;
  inv_cov : Mathkit.Fmat.t;  (** inverse pooled covariance P, flat row-major *)
  log_det : float;
  pois : int array;  (** POI indices into the window, kept for bookkeeping *)
  center : float array;  (** derived: the mean of the class means *)
  lin : float array array;  (** derived: [lin.(k) = P (means.(k) - center)] *)
  offs : float array;  (** derived: [offs.(k) = (means.(k) - center) . lin.(k)] *)
}
(** A trained template.  The first five fields are its parameters (the
    profile cache stores them); the last three are derived from them by
    {!make}, the only constructor. *)

val make :
  labels:int array -> means:float array array -> inv_cov:Mathkit.Fmat.t -> log_det:float -> pois:int array -> t
(** The template with these parameters and its derived fields.
    {!build} and the profile cache loader both construct through it,
    so a reloaded template scores bit for bit like the built one.
    @raise Invalid_argument when there are no classes, the label and
    mean counts differ, or a mean's length is not the dimension of
    [inv_cov]. *)

val build : pois:int array -> (int * float array array) list -> t
(** [build ~pois classes] with [classes = (label, poi_vectors) list].
    The covariance is pooled over classes and regularised by 1e-6
    times the mean diagonal.
    @raise Invalid_argument when any class has < 2 rows. *)

(** {1 Scoring}

    All classes share one pooled covariance, so scoring runs in the
    linear-discriminant form: with y = x - center, the log density of
    class k is

    [const - q/2 + delta_k],  [q = y^T P y],
    [delta_k = lin.(k) . y - offs.(k)/2],

    which equals the Mahalanobis form [const - (x - mu_k)^T P (x -
    mu_k) / 2] up to rounding.  Posteriors normalise [const - q/2]
    away and read the discriminants [delta_k] alone; only the absolute
    densities ({!log_likelihoods_fv} and [s_best_ll]) compute [q].

    The caller owns a {!scratch} (one per domain — scratches must not
    be shared across domains) and the scoring functions return rows
    BORROWED from it, valid until the next call on the same
    scratch. *)

val dimension : t -> int
(** POI-vector dimensionality the template scores (length of each
    class mean). *)

type scratch
(** Per-template workspace: the centred vector and the per-class
    rows the scoring functions return. *)

val make_scratch : t -> scratch
(** Fresh scratch sized for [t]. *)

val log_likelihoods_fv : t -> scratch -> Mathkit.Fvec.t -> float array
(** Per-class Gaussian log density of one POI vector (same order as
    [labels]): one quadratic form and one dot product per class. *)

val classify_fv : t -> scratch -> Mathkit.Fvec.t -> int
(** Maximum-likelihood label: the argmax of the flat-prior posterior
    over the discriminants. *)

val log_prior : t -> float array -> float array
(** [log_prior t priors] is the row [log (Float.max p 1e-300)] of the
    class priors [priors] (same order as [labels]), the form in which
    {!scores_fv} and {!priored_posterior_fv} take a prior.  Build it
    once per prior and pass it to every scoring call.
    @raise Invalid_argument when [priors] does not hold one entry per
    class. *)

type scores = {
  s_best_ll : float;  (** [Float.max] fold over the log likelihoods *)
  s_post : float array;  (** flat-prior posterior, borrowed *)
  s_post_p : float array;  (** posterior under the prior, borrowed *)
}

val scores_fv : log_prior:float array -> t -> scratch -> Mathkit.Fvec.t -> scores
(** One scoring pass, then every score a grading consumer needs.  Each
    row is bit-identical to the corresponding separate computation
    (the maximum of {!log_likelihoods_fv}, the flat posterior
    {!classify_fv} reads, and {!priored_posterior_fv}), so one
    [scores_fv] call substitutes for several scoring calls without
    observable effect.  [log_prior] is a {!log_prior} row of this
    template.  Both rows are borrowed from the scratch. *)

val priored_posterior_fv : log_prior:float array -> t -> scratch -> Mathkit.Fvec.t -> float array
(** The [s_post_p] row of {!scores_fv} alone, bit-identical to it, for
    a template whose flat posterior and best density go unread: it
    needs the discriminants only, so it computes no quadratic form.
    Borrowed from the scratch. *)
