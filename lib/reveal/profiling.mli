(** Template building — the pipeline's training phase.

    Re-creates the paper's profiling: the adversary owns an identical
    device, forces every candidate coefficient value through the
    sampler many times, segments each trace, and learns (a) an
    absolute segmentation threshold, (b) a common window length,
    (c) SOSD POIs and Gaussian templates, (d) the goodness-of-fit
    floors the confidence gate compares against.  Both the live and
    the archive-streamed paths consume their generator identically, so
    for equal seeds the offline profile is bit-identical to the live
    one. *)

val profile :
  ?per_value:int -> ?domains:int -> ?obs:Obs.Ctx.t -> ?poi_count:int -> Device.t -> Mathkit.Prng.t -> Pipeline.profile
(** Build templates on the attack device itself: each profiling run
    forces every candidate value ({!Constants.default_values}) into
    several uniformly shuffled positions of an honest-length sampling.
    The value templates read [poi_count] POIs (default
    {!Constants.default_poi_count}), the sign template
    {!Constants.default_sign_poi_count}.  [per_value] defaults to
    {!Constants.default_per_value} windows per candidate value; runs
    are distributed over [domains] worker domains (results are
    independent of the domain count — every run carries its own seed).
    With an enabled [obs] context the phases run inside
    [profiling.calibrate] / [profiling.acquire] / [profiling.build]
    spans, the run and window totals land in [profiling.*] counters,
    and the calibrated fit floors are exported as gauges.
    @raise Invalid_argument when the device is too small to host every
    candidate value twice per run. *)

val profiling_windows :
  ?per_value:int ->
  ?domains:int ->
  ?obs:Obs.Ctx.t ->
  Device.t ->
  Mathkit.Prng.t ->
  Sca.Segment.config * int * (int * float array array) list
(** The raw material {!profile} is built from: the calibrated
    segmentation config, the common window length, and the labelled
    window vectors per candidate value.  Exposed for the
    feature-selection ablation and for custom classifiers. *)

val profile_of_windows :
  poi_count:int -> sign_poi_count:int -> Sca.Segment.config * int * (int * float array array) list -> Pipeline.profile
(** Fit templates and fit floors on already-collected windows. *)

val record_profiling : ?per_value:int -> ?seed:int64 -> Device.t -> Mathkit.Prng.t -> path:string -> unit
(** Capture the profiling campaign of {!profile} into an archive, one
    run resident at a time; the segmentation calibration travels in
    the archive metadata.  [seed] is stamped into the header for
    provenance.
    @raise Invalid_argument under the same conditions as {!profile}. *)

val profiling_windows_of_archive : string -> Sca.Segment.config * int * (int * float array array) list
(** Stream the labelled windows back out of a profiling archive:
    records are ingested in batches of {!Constants.default_batch}
    traces — the peak resident set — each decoded straight into the
    vector segmentation reads ({!Traceio.Archive.next_batch}), and
    segmented in parallel over the default worker domains.
    @raise Traceio.Error.Corrupt when the archive is damaged or is not
    a profiling archive. *)

val profile_of_archive : string -> Pipeline.profile
(** {!profile} at the default POI counts, but from a recorded
    profiling archive. *)

(**/**)

(* Internals shared with tests and the campaign drivers. *)

val calibrate_threshold : Device.t -> Mathkit.Prng.t -> float
val profiling_shape : values:int array -> per_value:int -> Device.t -> int * int
val profiling_run : Device.t -> values:int array -> copies:int -> int64 -> Device.run
val fit_floor : float array -> float
