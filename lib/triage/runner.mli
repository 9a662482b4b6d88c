(** One trial, executed: record a faulted campaign archive, replay the
    attack over it, measure, classify.

    Trials deliberately attack from a recorded archive rather than the
    live device, so a trial's outcome is definitionally equal to a
    deterministic replay of its archive — the property the minimizer's
    bisection rests on.  (Live retries draw randomness a replay cannot
    reproduce; in replay an Unknown coefficient is always
    [Unrecoverable], consistently on both sides.) *)

val profile_for : Plan.trial -> Reveal.Campaign.profile
(** Build the trial's templates: fault-free clone device, seeded by
    the trial seed alone — any process rebuilds them bit-identically
    from the trial row.  [Aggressive] trials get the profile with its
    goodness-of-fit floors disabled (their scenario is a pipeline
    without its out-of-distribution tripwire). *)

val run : ?obs:Obs.Ctx.t -> ?archive:string -> Plan.trial -> Verdict.measurements
(** The whole trial: profile, record (into [archive] if given, else a
    temp file removed afterwards — a [trial.record] span with an
    enabled [obs]), then measure: replay the attack over the archive
    in the trial's mode (strict segmenter = Classic, resilient =
    gated) on one domain, and check its invariants (grade-count
    accounting, correct-vs-total bounds, result-array length, and —
    for zero-intensity resilient/default trials — bit-identity with
    the classic pipeline).  Violated invariants land in
    [m_violations] as stable identifiers.  Raises whatever the
    pipeline raises — the caller decides whether that is a crash
    verdict (fuzzer) or a reported error (CLI). *)

val record_and_measure : ?obs:Obs.Ctx.t -> Plan.trial -> archive:string -> Verdict.measurements
(** {!run} keeping the archive at [archive] — the worker entry
    point. *)

val replay_verdict : Plan.trial -> Reveal.Campaign.profile -> archive:string -> Verdict.t
(** The minimizer's probe: measure + classify, mapping any pipeline
    exception to its [Crash] family instead of raising (a candidate
    that crashes the pipeline reproduces a crash finding).  OS-level
    [Unix_error]s still raise. *)
