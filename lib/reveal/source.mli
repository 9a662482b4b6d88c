(** Concrete trace sources behind {!Pipeline.SOURCE}.

    Two instances cover every campaign the repo runs: a live device
    ({!device_live}, or a slice of one with {!device_live_range}) and
    an archive replay ({!archive_replay}, over {!Traceio.Source}); any
    other record stream adapts through {!of_trace_source}.  The
    drivers in {!Campaign} are
    written against the source interface only — adding an acquisition
    backend (a remote scope, a different file format) means writing
    one of these, nothing else. *)

val device_live :
  Device.t ->
  traces:int ->
  scope_rng:Mathkit.Prng.t ->
  sampler_rng:Mathkit.Prng.t ->
  Pipeline.source
(** [traces] honest single-trace captures.  Seeds are pre-drawn from
    the two generators at construction, one pair per trace in trace
    order, and each item re-derives its own generators — acquisition
    can therefore run on any worker domain without perturbing the
    campaign's randomness.  Every item carries a [remeasure] closure
    that re-acquires the same coefficients (same noise values, honest
    timing, fresh scope/fault realisation) from a per-trace retry
    stream ({!Constants.retry_seed_salt}), so retries never touch the
    campaign generators. *)

val device_live_range :
  Device.t ->
  traces:int ->
  lo:int ->
  hi:int ->
  scope_rng:Mathkit.Prng.t ->
  sampler_rng:Mathkit.Prng.t ->
  Pipeline.source
(** {!device_live} restricted to the half-open slice [\[lo,hi)] of a
    [traces]-long campaign — the shard worker's source.  The full
    campaign's seed table is drawn regardless of the slice, so trace
    [i] acquires identically whether it is served by the whole
    campaign, this shard, or any other partition; items keep their
    global indices.  [device_live] is the [\[0,traces)] instance.
    @raise Invalid_argument unless [0 <= lo <= hi <= traces]. *)

val archive_replay : ?strict:bool -> ?obs:Obs.Ctx.t -> string -> Pipeline.source
(** Stream a recorded campaign.  Tolerant by default: a record failing
    its CRC yields [`Skip] and the stream resumes at the next frame
    boundary; with [~strict:true] the same condition raises
    {!Traceio.Error.Corrupt} instead.  Records decode inside [next]
    (the reader is sequential), so the acquire thunks are cheap.
    [obs] forwards to the underlying archive reader, whose read/skip
    counters land in the context's metrics registry.
    @raise Traceio.Error.Io when the file cannot be opened. *)

val of_trace_source : Traceio.Source.t -> Pipeline.source
(** Adapt any {!Traceio.Source} record stream (indices assigned in
    stream order). *)
