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

type t = {
  labels : int array;  (** class labels, e.g. coefficient values *)
  means : float array array;
  inv_cov : Mathkit.Fmat.t;  (** inverse pooled covariance, flat row-major *)
  log_det : float;
  pois : int array;  (** POI indices into the window, kept for bookkeeping *)
}

val build : pois:int array -> (int * float array array) list -> t
(** [build ~pois classes] with [classes = (label, poi_vectors) list].
    The covariance is pooled over classes and regularised by 1e-6
    times the mean diagonal.
    @raise Invalid_argument when any class has < 2 rows. *)

(** {1 Scoring}

    The caller owns a {!scratch} (one per domain — scratches must not
    be shared across domains) and the scoring functions return rows
    BORROWED from it, valid until the next call on the same
    scratch. *)

val dimension : t -> int
(** POI-vector dimensionality the template scores (length of each
    class mean). *)

type scratch = {
  diff : Mathkit.Fvec.t;  (** x - mu workspace, [dimension] long *)
  ll : float array;  (** per-class log likelihoods, borrowed *)
  post : float array;  (** per-class posterior, borrowed *)
  post_p : float array;  (** per-class priored posterior, borrowed *)
}

val make_scratch : ?arena:Mathkit.Fvec.Scratch.t -> t -> scratch
(** Scratch sized for [t]; [diff] is carved from [arena] when given,
    freshly allocated otherwise. *)

val log_likelihoods_fv : t -> scratch -> Mathkit.Fvec.t -> float array
(** Per-class Gaussian log density of one POI vector (same order as
    [labels]). *)

val posterior_fv : t -> scratch -> Mathkit.Fvec.t -> float array
(** Normalised class probabilities under a flat prior
    ({!priored_posterior_fv} weighs in class priors). *)

val classify_fv : t -> scratch -> Mathkit.Fvec.t -> int
(** Maximum-likelihood label. *)

type scores = {
  s_best_ll : float;  (** [Float.max] fold over the log likelihoods *)
  s_post : float array;  (** flat-prior posterior, borrowed *)
  s_post_p : float array;  (** posterior under [priors], borrowed *)
}

val scores_fv : priors:float array -> t -> scratch -> Mathkit.Fvec.t -> scores
(** One log-likelihood pass, then every score a grading consumer
    needs.  Each row is bit-identical to the corresponding separate
    computation ([log_likelihoods_fv] max, [posterior_fv], and that
    posterior with [priors] mixed in), so one [scores_fv] call
    substitutes for several scoring calls without observable effect.
    Both rows are borrowed from the scratch. *)

val priored_posterior_fv : priors:float array -> t -> scratch -> Mathkit.Fvec.t -> float array
(** The [s_post_p] row of {!scores_fv} alone, bit-identical to it, for
    a template whose flat posterior and best density go unread.
    Borrowed from the scratch. *)
