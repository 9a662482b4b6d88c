(** The device under attack: RISC-V core + sampler firmware + scope.

    Bundles the pieces of the measurement setup the paper describes
    (PicoRV32 soft core running SEAL's sampler, shunt + oscilloscope)
    into one object: load the firmware once, then run sampling
    campaigns and get power traces back.  All randomness — the
    sampler's draws and the scope's measurement noise — comes from
    explicit generators. *)

type t

val create :
  ?variant:Riscv.Sampler_prog.variant ->
  ?synth:Power.Synth.config ->
  ?cycle_model:(Riscv.Inst.klass -> int) ->
  ?fault:Power.Fault.config ->
  n:int ->
  unit ->
  t
(** A device whose firmware samples [n] coefficients per run over the
    paper's modulus q = 132120577 (k = 1).
    With [fault], every trace leaving the scope — live runs and
    recordings alike — is corrupted by that measurement-fault model;
    a no-op fault config leaves traces bit-identical to a faultless
    device. *)

val n : t -> int
val variant : t -> Riscv.Sampler_prog.variant
val moduli : t -> int array
val synth_config : t -> Power.Synth.config
val with_fault : t -> Power.Fault.config option -> t
(** Same firmware and scope, different acquisition-fault load. *)

val fault_config : t -> Power.Fault.config option

type run = {
  trace : Power.Ptrace.t;
  noises : int array;  (** ground truth: the signed coefficients sampled *)
  poly : int array array;  (** what the firmware wrote: planes x coefficients *)
}

val run : t -> scope_rng:Mathkit.Prng.t -> draws:(int * int) array -> run
(** Execute one sampling of [n t] coefficients from an explicit draw
    queue [(noise, rejections)]. *)

val run_gaussian : t -> scope_rng:Mathkit.Prng.t -> sampler_rng:Mathkit.Prng.t -> run
(** Honest run: the device draws its own clipped-normal noise. *)

val run_shuffled :
  t -> scope_rng:Mathkit.Prng.t -> sampler_rng:Mathkit.Prng.t -> perm:int array -> run
(** Shuffled-variant run with the given sampling order. *)

val profiling_draw : t -> Mathkit.Prng.t -> value:int -> int * int
(** A draw queue entry with the chosen [value] but a realistic,
    honestly sampled rejection count — how profiling "configures the
    device with all possible secrets" without distorting its timing
    distribution. *)

(** {1 Recording}

    Capture a campaign into a {!Traceio.Archive} once, re-attack it
    offline any number of times ({!Source.archive_replay}).  Recording
    streams run by run — memory stays bounded by one trace — and the
    archive is lossless: a replayed record is bit-identical to the
    live run (samples and ground-truth labels), so offline
    analyses reproduce online results exactly.  {!of_header} builds
    the clone device offline profiling runs on. *)

val open_recorder :
  ?meta:(string * string) list -> ?obs:Obs.Ctx.t -> t -> path:string -> seed:int64 -> Traceio.Archive.writer
(** An archive writer stamped with this device's parameters (variant,
    n, samples per cycle, scope noise) and the campaign [seed].  With
    an enabled [obs] context the writer counts every appended record
    ([traceio.records_written], [traceio.payload_bytes_written]). *)

val record_run : Traceio.Archive.writer -> run -> unit
(** Append one run (its trace and ground-truth noises). *)

val record :
  ?obs:Obs.Ctx.t ->
  t ->
  path:string ->
  seed:int64 ->
  traces:int ->
  scope_rng:Mathkit.Prng.t ->
  sampler_rng:Mathkit.Prng.t ->
  unit
(** Capture [traces] honest runs ([run_gaussian]; the Shuffled variant
    draws a fresh secret permutation per run) into an archive.  [seed]
    is provenance metadata only — the randomness comes from the two
    generators, exactly as in the live campaign entry points.  With an
    enabled [obs] context the capture loop runs inside a
    [device.record] span and the writer counts records and bytes. *)

val of_header : Traceio.Archive.header -> t
(** A clone device matching an archive's parameters — what offline
    profiling builds its templates on: {!Power.Synth.default} with the
    header's sampling rate and noise sigma. *)
