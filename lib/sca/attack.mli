(** The combined single-trace attack of Section III-D.

    Three templates cooperate, mirroring the paper's use of the three
    vulnerabilities:

    - a 3-class {e sign} template over the branch region
      (vulnerability 1) — the paper reports 100 % success for it;
    - a value template over the {e negative} candidates: its POIs land
      on the negation sequence and the [modulus - noise] stores, i.e.
      vulnerabilities 3 + 2, which is why negative coefficients come
      out far better (Table I);
    - a value template over the {e positive} candidates: only the
      assignment leakage (vulnerability 2) is available, so values of
      equal Hamming weight collide — the 1/2/4/8 confusions visible in
      Table I.

    Matching classifies the sign first and then dispatches to that
    group's template; zero needs no second stage.  {!grade_fv}
    returns the hard decision plus the posterior over all candidate
    values — Table I consumes the former, the LWE-hint integration
    (Tables II-III) the latter. *)

type t = private {
  sign_template : Template.t;
  neg_template : Template.t;
  pos_template : Template.t;
  neg_priors : float array;  (** Gaussian prior restricted to the group *)
  pos_priors : float array;
  prior_of_sign : float array;  (** P(sign = -1, 0, +1) under the sampler *)
  pois_sign : int array;
  pois_neg : int array;
  pois_pos : int array;
  log_prior_of_sign : float array;  (** derived: [Template.log_prior sign_template prior_of_sign] *)
  neg_log_priors : float array;  (** derived: [Template.log_prior neg_template neg_priors] *)
  pos_log_priors : float array;  (** derived: [Template.log_prior pos_template pos_priors] *)
  neg_order : int array;  (** derived: [neg_template]'s class indices by ascending label *)
  pos_order : int array;  (** derived: [pos_template]'s class indices by ascending label *)
}

type verdict = {
  sign : int;  (** -1, 0 or 1 *)
  value : int;  (** recovered coefficient *)
  posterior : (int * float) array;  (** value -> probability over every candidate *)
}

val sign_of_label : int -> int

val make :
  sign_template:Template.t ->
  neg_template:Template.t ->
  pos_template:Template.t ->
  neg_priors:float array ->
  pos_priors:float array ->
  prior_of_sign:float array ->
  pois_sign:int array ->
  pois_neg:int array ->
  pois_pos:int array ->
  t
(** The attack from its trained parts, with every derived field
    computed from them.  {!build} and the profile cache loader both
    construct through it, so a reloaded attack scores bit for bit like
    the built one.
    @raise Invalid_argument when a prior's length does not match its
    template's class count. *)

val build : poi_count:int -> sign_poi_count:int -> sigma:float -> (int * float array array) list -> t
(** [build ~poi_count ~sign_poi_count ~sigma classes] profiles from
    labelled windows ([label, window_vectors]).  POIs are selected by
    SOSD — [sign_poi_count] for the sign grouping and [poi_count]
    within each sign group (the pipeline uses 6 and 16).  [sigma]
    shapes the value priors. *)

(** {1 Scoring}

    Windows arrive as {!Mathkit.Fvec} views.  A {!Scratch.t} bundles
    the POI gather buffer and the three template scratches; build one
    per domain ([make_scratch] once, score many windows) — scoring
    allocates nothing per window beyond its results.  Every constant
    of the attack (the templates' discriminant terms, see {!Template},
    the log-prior rows and the posterior layout) is computed once, by
    {!make}; a window costs one quadratic form per template whose fit
    is read plus one dot product per class. *)

module Scratch : sig
  type t
end

val make_scratch : t -> Scratch.t

val sign_fit_fv : t -> Scratch.t -> Mathkit.Fvec.t -> float
(** Best-class Gaussian log density of the window under the sign
    template — an absolute goodness-of-fit.  Posteriors normalise the
    likelihood away, so a corrupted window can still look confident;
    its fit, by contrast, collapses (the exponent is quadratic in the
    deviation from the nearest class mean).  Profiling calibrates the
    confidence gate's floor on it. *)

val value_fit_fv : t -> Scratch.t -> sign:int -> Mathkit.Fvec.t -> float
(** Best-class log density under the value template of [sign]'s group
    (for sign 0, the sign template — zero has no second stage). *)

(** Everything the confidence gate consumes for one window. *)
type graded = {
  g_verdict : verdict;
  g_posterior_all : (int * float) array;
  g_sign_confidence : float;
  g_sign_fit : float;
  g_value_fit : float;
}

val grade_fv : t -> Scratch.t -> Mathkit.Fvec.t -> graded
(** Score one window: each template is scored at most once and all
    five quantities are derived from the shared score rows.
    [g_verdict] classifies the sign by maximum likelihood, then the
    value within the recovered sign's group (zero needs no second
    stage); [g_posterior_all] is the joint Bayesian posterior
    P(v) = P(sign of v) * P(v | its group) over every candidate, by
    ascending label, the raw Table II rows (the value group whose
    verdict goes unread only contributes its priored posterior, which
    needs no quadratic form); [g_sign_confidence] is the peak of the
    flat-prior sign posterior — near 1/3 the window looks like no sign
    class; the two fits are {!sign_fit_fv} and {!value_fit_fv} (under
    the recovered sign), bit for bit. *)
