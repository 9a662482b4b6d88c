(** Observability context — the handle instrumented stages receive.

    Every pipeline entry point takes [?obs] defaulting to {!disabled},
    where {!span} reduces to calling its thunk and {!event} to a
    single branch: no clock read, no allocation.  An enabled context
    (from {!create}) emits a self-describing JSON Lines trace —
    a ["start"] record, paired ["span_begin"]/["span_end"] records
    with durations from its clock, severity-tagged ["event"] records —
    and owns a {!Metrics} registry whose snapshot is appended as the
    final ["metrics"] record by {!close}.

    Instrumentation discipline: resolve counters/histograms by name
    once per run (they hit a registry lock), update them per item;
    guard any attr-list construction with {!enabled} so disabled runs
    stay allocation-free. *)

type level = Debug | Info | Warn | Error

type t

val disabled : t
(** The shared no-op context: [enabled] is [false], spans and events
    cost nothing, the metrics registry is live but never exported. *)

val create : ?clock:Clock.t -> ?source:string -> sink:Sink.t -> unit -> t
(** Fresh enabled context; emits the ["start"] record immediately.
    [clock] defaults to {!Clock.wall}; pass {!Clock.logical} for
    byte-reproducible traces.  [source], when given, is stamped into
    the ["start"] record so a fleet aggregator can tell the workers'
    streams apart (e.g. ["shard-0"]). *)

val enabled : t -> bool
val metrics : t -> Metrics.t
val counter : t -> string -> Metrics.counter
(** [Metrics.counter (metrics t)] — get-or-create by name. *)

val gauge : t -> string -> Metrics.gauge
val histogram : ?buckets:float array -> t -> string -> Metrics.histogram

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a timed span.  Disabled: exactly
    [f ()].  Enabled: emits ["span_begin"], runs [f], emits
    ["span_end"] with the duration — also on exception, with
    ["error":true], before re-raising. *)

val event : ?level:level -> ?attrs:(string * Json.t) list -> t -> string -> unit
(** Point event; no-op when disabled.  Build [attrs] under an
    [enabled] guard to keep the disabled path allocation-free. *)

val close : t -> unit
(** Emit the final ["metrics"] snapshot record and close the sink.
    Idempotent; no-op on {!disabled}. *)
