(** Profiling and attack campaigns (Section IV-B) — the stage drivers.

    This module is the composition root of the staged pipeline: the
    historical entry points ({!run_attacks_resilient},
    {!attack_archive}, …) are thin wrappers that pick a
    {!Pipeline.source} and hand it to the one generic driver,
    {!run_source}, under the default gate.  The stages themselves live in {!Profiling}
    (template building), {!Profile_store} (cache v3), {!Grading}
    (gate + retry ladder) and {!Source} (live / archive replay);
    their types are re-exported here under their historical names.

    The paper's sizes are 220 000 profiling runs and 25 000 attacked
    coefficients; the default here is scaled down (the shapes are
    stable); pass larger counts to match the paper exactly. *)

type profile = Pipeline.profile = {
  attack : Sca.Attack.t;
  window_length : int;
  segment : Sca.Segment.config;  (** with the calibrated absolute threshold *)
  values : int array;  (** candidate labels, e.g. -14..14 *)
  sigma : float;
  sign_fit_floor : float;
      (** goodness-of-fit floor for the sign template, calibrated on
          the profiling windows — attack windows scoring below it are
          out-of-distribution (faulted) and grade Unknown *)
  value_fit_floor : float;  (** same, for the value templates: below it a window is at best SignOnly *)
}

val profile : ?per_value:int -> ?domains:int -> ?obs:Obs.Ctx.t -> ?poi_count:int -> Device.t -> Mathkit.Prng.t -> profile
(** {!Profiling.profile}: build templates on the attack device itself.
    @raise Invalid_argument when the device is too small to host every
    candidate value twice per run. *)

val save_profile : string -> profile -> unit
(** {!Profile_store.save}. *)

val load_profile : string -> profile
(** {!Profile_store.load}.
    @raise Traceio.Error.Corrupt naming the file, with the advice to
    re-run profiling, on a stale (v1 / Marshal-era),
    version-mismatched, truncated, corrupt or over-long cache.
    @raise Traceio.Error.Io when the file cannot be read. *)

(** {1 Profiling campaigns on disk}

    The acquire-once / analyze-many split: {!record_profiling} runs
    the profiling campaign and streams every labelled run into a
    {!Traceio.Archive} (the segmentation calibration travels in the
    archive metadata); {!profile_of_archive} rebuilds templates from
    such an archive without touching a device.  Both paths consume
    their generator identically, so for equal seeds the offline
    profile is bit-identical to the live one. *)

val record_profiling : ?per_value:int -> ?seed:int64 -> Device.t -> Mathkit.Prng.t -> path:string -> unit
(** {!Profiling.record_profiling}.
    @raise Invalid_argument under the same conditions as {!profile}. *)

val profiling_windows_of_archive : string -> Sca.Segment.config * int * (int * float array array) list
(** {!Profiling.profiling_windows_of_archive}.
    @raise Traceio.Error.Corrupt when the archive is damaged, is not a
    profiling archive or has a record that does not segment. *)

val profile_of_archive : string -> profile
(** {!Profiling.profile_of_archive}: {!profile}, but from a recorded
    profiling archive. *)

val profiling_windows :
  ?per_value:int ->
  ?domains:int ->
  ?obs:Obs.Ctx.t ->
  Device.t ->
  Mathkit.Prng.t ->
  Sca.Segment.config * int * (int * float array array) list
(** {!Profiling.profiling_windows}: the raw material {!profile} is
    built from.  Exposed for the feature-selection ablation and for
    custom classifiers. *)

(** {1 Confidence grading}

    Re-exports of the {!Grading} stage: every attacked coefficient
    carries a grade — the rung of the hint-degradation ladder it is
    still good for — and a recovery tag saying how it was obtained. *)

type grade = Grading.grade =
  | Confident  (** clean window, unambiguous match: full-strength hint *)
  | Tentative
      (** usable posterior but a repaired window or a soft match: the
          hint keeps its measured posterior variance *)
  | SignOnly  (** only the branch-region sign is trustworthy *)
  | Unknown  (** nothing usable — the window is noise *)

type recovery = Grading.recovery =
  | Clean  (** first measurement sufficed *)
  | Retried of int  (** usable after this many re-measurements *)
  | Unrecoverable
      (** still Unknown when the retry budget ran out — or no live
          device to re-measure on (archive replay) *)

type gate = Grading.gate = {
  confident_threshold : float;
      (** min peak of the joint Bayesian posterior for Confident (also
          requires a window segmentation did not have to repair); a
          point-mass posterior always scores 1.0 *)
  tentative_threshold : float;  (** min joint confidence for Tentative *)
  sign_only_threshold : float;  (** min sign confidence for SignOnly *)
  retry_budget : int;  (** re-measurements per trace, live campaigns only *)
}

val default_gate : gate
(** 0.85 / 0 / 0.5, retry budget 2.  With a zero tentative threshold,
    demotion below Tentative happens only on a goodness-of-fit failure
    (see {!profile}) — clean traces always fit, so the zero-fault
    pipeline is bit-identical to the ungated one. *)

type coefficient_result = Grading.coefficient_result = {
  actual : int;
  verdict : Sca.Attack.verdict;
  posterior_all : (int * float) array;  (** unrestricted posterior, Table II *)
  grade : grade;
  recovery : recovery;
}

val grade_counts : coefficient_result array -> int * int * int * int
(** (confident, tentative, sign-only, unknown). *)

val confident_mismatches : coefficient_result array -> int
(** {!Grading.confident_mismatches}: coefficients graded [Confident]
    with a wrong recovered sign — the triage fuzzer's misgrade
    signal. *)

val hint_of_result : sigma:float -> coordinate:int -> coefficient_result -> Hints.Hint.t
(** {!Grading.hint_of_result}: the hint-degradation ladder. *)

val attack_trace : profile -> Device.run -> coefficient_result array
(** {!Grading.attack_resilient} on one captured trace under the
    default gate, with no re-measurement: resilient segmentation, then
    classify and grade every coefficient.  A trace whose segmentation
    fails outright grades every coefficient [Unknown]. *)

(** {1 Campaign drivers} *)

type stats = {
  confusion : Sca.Confusion.t;
  sign_correct : int;
  sign_total : int;
  value_correct : int;
  value_total : int;
  skipped_out_of_range : int;  (** |actual| beyond the template labels *)
  corrupt_skipped : int;
      (** source records dropped for CRC/decode failures (tolerant
          replay only; always 0 for live campaigns) *)
}

val stats_of_results : ?corrupt_skipped:int -> profile -> coefficient_result array -> stats
(** Rebuild the aggregates from a result array alone.  The campaign
    tally is a fold of commutative counters over results in item
    order, so this reproduces the driver's own stats exactly — and it
    is the deterministic-merge half of the distributed fabric:
    concatenating per-shard result slices in trace order and
    re-tallying here is bit-identical to the single-process run. *)

val run_source :
  ?obs:Obs.Ctx.t ->
  ?expected:int ->
  ?domains:int ->
  ?batch:int ->
  ?gate:gate ->
  profile ->
  Pipeline.source ->
  stats * coefficient_result array
(** The one generic driver every campaign below is a wrapper around:
    pull the source through {!Pipeline.iter_batches}, up to [batch]
    items at a time (default {!Constants.default_batch}), attack each
    with {!Grading.attack_resilient} under [gate] (default
    {!default_gate}) — re-measuring through the item's [remeasure]
    when the source is live — in parallel over [domains] worker
    domains, and tally in item order.  A source record dropped as
    damaged — a [`Skip] at the pull, or an [acquire] raising
    {!Pipeline.Dropped} on the worker — counts toward the batch budget
    and [stats.corrupt_skipped].  When items raise, the lowest one's
    exception is raised ({!Mathkit.Parallel.map_array_with}); when a
    pull raises, the items pulled before it are attacked first.  The
    source is closed on exit, also on exceptions.

    With an enabled [obs] context the whole run is one [campaign.run]
    span containing a [campaign.batch] span per batch (fan-out) and a
    [stage.tally] span per fold; each item counts [source.items] or
    [source.skips] (a skip also emits a warn-level [source.skip]
    event), each item's [acquire] runs inside a [stage.acquire] span
    on the domain that forces it, each per-trace attack carries its
    stage spans and window metrics (see {!Grading.attack_resilient}),
    and the final aggregates are exported as [result.*] gauges so the
    trace is a self-contained run record.  Span timings are only
    meaningful per-domain; counters and histograms aggregate correctly
    across domains.

    Each batch additionally ends with a {!Constants.heartbeat_event}
    event whose attrs carry the coefficients graded so far (["done"])
    and, when [expected] names the campaign size, the ["total"] — the
    progress frames a live monitor consumes over a streaming sink.
    @raise Invalid_argument when [batch <= 0]. *)

val run_attacks_resilient :
  ?obs:Obs.Ctx.t ->
  ?domains:int ->
  profile ->
  Device.t ->
  traces:int ->
  scope_rng:Mathkit.Prng.t ->
  sampler_rng:Mathkit.Prng.t ->
  stats * coefficient_result array
(** Repeated single-trace attacks on a live device
    ({!Source.device_live} through {!run_source}); returns aggregate
    statistics and the flattened per-coefficient results (for hint
    building), graded under {!default_gate}.  Unknown-graded
    coefficients are re-measured on the live device within the gate's
    retry budget.  Retries draw from a separate per-trace generator
    stream, so they never perturb the other traces' randomness. *)

val attack_archive : ?obs:Obs.Ctx.t -> ?strict:bool -> profile -> string -> stats * coefficient_result array
(** Re-attack a recorded campaign (see {!Device.record}) offline:
    {!Source.archive_replay} through {!run_source} at its default
    batch, domains and gate — for the runs the archive holds, the
    same aggregates and bit-identical results as
    {!run_attacks_resilient} whenever the live campaign re-measured
    nothing, with memory bounded by one batch instead of the whole
    trace set.  A mid-stream record that fails its CRC is
    skipped, counted in [stats.corrupt_skipped], and replay continues
    at the next frame boundary; pass [~strict:true] to fail fast
    instead.  Replaying cannot re-measure, so Unknown coefficients are
    [Unrecoverable].
    @raise Traceio.Error.Corrupt when the archive is structurally
    damaged (truncation, bad length field) — or, with [~strict:true],
    on the first bad record, in archive order. *)
