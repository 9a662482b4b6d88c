(** The grader stage: confidence gate, retry ladder, hint demotion.

    Under measurement faults a verdict can be garbage even when the
    classifier returns one.  Every attacked coefficient therefore
    carries a grade — the rung of the hint-degradation ladder it is
    still good for — and a recovery tag saying how it was obtained.
    Both attack entry points here are pure per-trace functions over
    {!Pipeline} stage instances; the campaign drivers fan them out. *)

type grade =
  | Confident  (** clean window, unambiguous match: full-strength hint *)
  | Tentative
      (** usable posterior but a repaired window or a soft match: the
          hint keeps its measured posterior variance *)
  | SignOnly  (** only the branch-region sign is trustworthy *)
  | Unknown  (** nothing usable — the window is noise *)

type recovery =
  | Clean  (** first measurement sufficed *)
  | Retried of int  (** usable after this many re-measurements *)
  | Unrecoverable
      (** still Unknown when the retry budget ran out — or no live
          device to re-measure on (archive replay) *)

type coefficient_result = {
  actual : int;
  verdict : Sca.Attack.verdict;
  posterior_all : (int * float) array;  (** unrestricted posterior, Table II *)
  grade : grade;
  recovery : recovery;
}

type gate = {
  confident_threshold : float;
      (** min peak of the joint Bayesian posterior for Confident (also
          requires a window segmentation did not have to repair); a
          point-mass posterior always scores 1.0 *)
  tentative_threshold : float;  (** min joint confidence for Tentative *)
  sign_only_threshold : float;  (** min sign confidence for SignOnly *)
  retry_budget : int;  (** re-measurements per trace, live campaigns only *)
}

val default_gate : gate
(** {!Constants.gate_confident_threshold} etc.: 0.85 / 0 / 0.5, retry
    budget 2.  With a zero tentative threshold, demotion below
    Tentative happens only on a goodness-of-fit failure — clean traces
    always fit, so the zero-fault pipeline is bit-identical to the
    ungated one. *)

type ctx
(** A classifier resolved together with its scratch state — the
    grader's per-worker working set.  One context serves any number of
    sequential classifications; it must not be shared across domains
    (each worker builds its own with {!make_ctx}). *)

val make_ctx : ?classifier:Pipeline.classifier -> Pipeline.profile -> ctx
(** Resolve [classifier] (default: the profile's template classifier)
    and allocate its scratch once.  The drivers call this once per
    worker domain so the per-window hot loop is allocation-free. *)

val classify_graded :
  ?classifier:Pipeline.classifier ->
  Pipeline.profile ->
  gate ->
  quality:Sca.Segment.quality ->
  Mathkit.Fvec.t ->
  Sca.Attack.verdict * (int * float) array * grade
(** Classify one window vector and grade it: goodness-of-fit floors
    first (they catch corruption a normalised posterior hides), then
    the joint-confidence thresholds.  [classifier] defaults to the
    profile's template classifier.  Builds a fresh {!ctx} per call —
    batch callers go through {!attack_strict}/{!attack_resilient},
    which reuse one. *)

val grade_counts : coefficient_result array -> int * int * int * int
(** (confident, tentative, sign-only, unknown). *)

val confident_mismatches : coefficient_result array -> int
(** Coefficients graded [Confident] whose recovered {e sign} is wrong
    — the failure mode the gate exists to prevent.  Sign rather than
    value: clean campaigns recover every sign but only a fraction of
    exact values, so sign correctness is the property a [Confident]
    grade actually vouches for.  Zero on every correctly-gated
    campaign; the triage fuzzer's misgrade verdict is this count being
    positive. *)

val hint_of_result : sigma:float -> coordinate:int -> coefficient_result -> Hints.Hint.t
(** The hint-degradation ladder: [Confident] integrates the measured
    posterior exactly as the clean pipeline does (near-point-mass
    posteriors become perfect hints), [Tentative] keeps the measured
    posterior but is barred from hardening into a perfect hint (a
    point-mass is floored at variance 0.25), [SignOnly] degrades to
    the half-Gaussian sign hint, [Unknown] contributes nothing. *)

val null_verdict : Sca.Attack.verdict
(** Placeholder verdict of an [Unrecoverable] coefficient. *)

val attack_strict :
  ?ctx:ctx ->
  ?obs:Obs.Ctx.t ->
  Pipeline.profile ->
  samples:Mathkit.Fvec.t ->
  noises:int array ->
  (coefficient_result array, Pipeline.error) result
(** The classic pipeline on one trace: strict segmentation, default
    gate, no retries; every result is [Clean].  [ctx] reuses a
    prebuilt classifier context; without one, a fresh context for the
    profile's template classifier is resolved per call.  With an enabled [obs]
    context the segmentation and classification run inside
    [stage.segment] / [stage.classify] spans, and per-window quality,
    grade, and fit-score/confidence distributions land in the metrics
    registry ([segment.windows_*], [grade.*], [classifier.*]). *)

val attack_resilient :
  ?gate:gate ->
  ?ctx:ctx ->
  ?segmenter:Pipeline.segmenter ->
  ?retry:(int -> Mathkit.Fvec.t) ->
  ?obs:Obs.Ctx.t ->
  Pipeline.profile ->
  samples:Mathkit.Fvec.t ->
  noises:int array ->
  coefficient_result array
(** Fault-tolerant single-trace attack: resilient segmentation (the
    default [segmenter]), per-window confidence grading, and — when
    [retry] is provided — a bounded re-measurement loop.  [ctx] as in
    {!attack_strict}.
    [retry attempt] must return a fresh capture of the same
    coefficients; coefficients still Unknown after [gate.retry_budget]
    attempts (or with no [retry]) are marked [Unrecoverable].  A trace
    whose segmentation fails outright grades every coefficient Unknown
    and is retried whole.  On a clean trace the verdicts are
    bit-identical to {!attack_strict}.  With an enabled [obs] context,
    every segmentation/classification pass (retries included) is
    spanned and counted as in {!attack_strict}, each retry pass emits
    a [retry.attempt] event, and the ladder updates [retry.attempts],
    [retry.rescued] and the [retry.depth] histogram. *)
