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
    {!Constants.default_per_value} windows per candidate value; runs,
    template fits and the fit-floor sweep are distributed over
    [domains] worker domains (results are independent of the domain
    count — every run carries its own seed).
    With an enabled [obs] context the phases run inside
    [profiling.calibrate] / [profiling.acquire] / [profiling.build]
    spans, the run and window totals land in [profiling.*] counters,
    and the calibrated fit floors are exported as gauges.
    @raise Invalid_argument when the device is too small to host every
    candidate value twice per run, or when a run's trace does not
    segment into one window per coefficient plus the firmware's
    trailing dummy (the message names the run). *)

val profiling_windows :
  ?per_value:int ->
  ?domains:int ->
  ?obs:Obs.Ctx.t ->
  Device.t ->
  Mathkit.Prng.t ->
  Sca.Segment.config * int * (int * float array array) list
(** The raw material {!profile} is built from: the calibrated
    segmentation config, the common window length, and the labelled
    window vectors per candidate value, each the first [window length]
    samples of its window.  The common length is the shortest
    candidate-value window of any run; each window is copied once, at
    its run's shortest such window, and cut to the common length only
    when that is shorter.
    Every row is a fresh array.  Exposed for the feature-selection
    ablation and for custom classifiers.
    @raise Invalid_argument as {!profile} does. *)

val profile_of_windows :
  ?domains:int ->
  poi_count:int ->
  sign_poi_count:int ->
  Sca.Segment.config * int * (int * float array array) list ->
  Pipeline.profile
(** Fit templates and fit floors on already-collected windows, on up
    to [domains] domains ({!Sca.Attack.build}'s three fits, then one
    class's fits per item), bit for bit whatever their number. *)

val record_profiling : ?per_value:int -> ?seed:int64 -> Device.t -> Mathkit.Prng.t -> path:string -> unit
(** Capture the profiling campaign of {!profile} into an archive, one
    run resident at a time; the segmentation calibration travels in
    the archive metadata.  [seed] is stamped into the header for
    provenance.
    @raise Invalid_argument under the same conditions as {!profile}. *)

val profiling_windows_of_archive :
  ?domains:int -> string -> Sca.Segment.config * int * (int * float array array) list
(** Stream the labelled windows back out of a profiling archive: after
    the header's calibration metadata, a strict {!Source.archive_replay}
    pulled through {!Pipeline.iter_batches}, the campaigns' loop, in
    batches of {!Constants.default_batch} (the peak resident set).
    Each item's [acquire] checks and decodes its record into its
    worker's samples slot ({!Device.samples_slot}), and that worker,
    one of up to [domains], segments it.  Windows are copied as
    {!profiling_windows} copies them.
    @raise Traceio.Error.Corrupt when the archive is damaged (the first
    damage in archive order), is not a profiling archive, has a record
    that does not segment into one window per coefficient plus the
    trailing dummy (the message names the record), or holds no window
    of a candidate value. *)

val profile_of_archive : string -> Pipeline.profile
(** {!profile} at the default POI and domain counts, but from a
    recorded profiling archive. *)

(**/**)

(* Internals shared with tests and the campaign drivers. *)

val calibrate_threshold : Device.t -> Mathkit.Prng.t -> float
val profiling_shape : values:int array -> per_value:int -> Device.t -> int * int
val profiling_run : Device.t -> values:int array -> copies:int -> int64 -> Device.run
val fit_floor : float array -> float
