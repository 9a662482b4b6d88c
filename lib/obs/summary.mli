(** Aggregation of a JSON Lines obs trace into a metrics tree.

    Backs [reveal_cli obs summarize]: span durations are grouped by
    name (count / total / mean / max), point events tallied by
    name+level, and the trace's final ["metrics"] record re-parsed
    into typed counter/gauge/histogram rows.  Every section is sorted
    by name, so {!render} output is deterministic — under the logical
    clock, byte-reproducible (the golden obs-summary test pins this). *)

type span_row = { span_name : string; span_count : int; span_total : float; span_max : float }
type event_row = { event_name : string; event_level : string; event_count : int }

type hist_row = {
  hist_name : string;
  hist_count : int;
  hist_sum : float;
  hist_min : float option;
  hist_max : float option;
  hist_buckets : (float * int) list;  (** (upper bound, count), ascending *)
  hist_overflow : int;
}

type t = {
  clock : string option;  (** from the ["start"] record, when present *)
  records : int;
  spans : span_row list;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : hist_row list;
  events : event_row list;
}

exception Malformed of string
(** Raised by {!state_add} on a structurally broken record. *)

(** {1 Incremental aggregation}

    The streaming core behind {!load} and the live fleet aggregator:
    records are folded in one at a time, so paper-scale traces (and
    open-ended telemetry streams) aggregate in bounded memory. *)

type state

val state_create : unit -> state

val state_add : ?weight:int -> state -> Json.t -> unit
(** Fold one parsed record in.  [weight] (default 1) multiplies point
    events — the event-sampling compensation.  @raise Malformed on a
    record with a missing/unknown ["ev"] or broken required fields,
    with a message naming the 1-based record index. *)

val state_finish : state -> t
(** Freeze the state into a summary (sections sorted by name).  The
    state may keep accumulating afterwards; finish again for an
    updated snapshot. *)

val of_records : Json.t list -> (t, string) result
(** Aggregate parsed trace records.  Unknown ["ev"] values and
    structurally broken records are errors naming the record index. *)

val load : ?sample_events:int -> string -> (t, string) result
(** Stream a JSONL file through the aggregation (blank lines skipped,
    one record resident at a time — paper-scale traces stay bounded).
    Errors name the path and, for parse failures, the 1-based line
    number.

    [sample_events] (default 1 = exact) keeps only every k-th point
    event and weights it by k: skipped event lines are counted in
    [records] but never JSON-parsed, so a trace dominated by per-trace
    warn events summarizes in ~1/k the time.  Event counts become
    estimates (count x k of the sampled stream); spans, counters,
    gauges and histograms are unaffected.
    @raise Invalid_argument when [sample_events < 1]. *)

val merge : t -> t -> t
(** Fold two summaries into one — the orchestrator's view of a
    sharded campaign from its workers' traces.  Span counts/totals
    add and maxima take the max; counters, event tallies, histogram
    buckets and [records] add; gauges add (campaign aggregates like
    [result.sign_correct] sum to the whole-campaign value — read
    per-run gauges from the per-worker summaries instead).  Clocks
    that disagree merge to ["mixed"]. *)

val merge_files : ?sample_events:int -> string list -> (t, string) result
(** {!load} each path and {!merge} the results, left to right.  An
    empty list is an error. *)

val render : t -> string
(** The text tree [obs summarize] prints.  Histogram header lines
    include p50/p95/p99 estimates ({!Metrics.estimate_quantile} over
    the merged buckets — deterministic, clamped to observed min/max). *)

val to_json : t -> Json.t
(** The [--json] rendering: same data, machine shape; histograms carry
    ["p50"]/["p95"]/["p99"] estimate fields ([null] when empty). *)

val to_prometheus : t -> string
(** Prometheus text-exposition rendering ([obs export]): spans as
    [reveal_span_count]/[reveal_span_seconds_total]/[..._max],
    counters as [reveal_counter_total], gauges as [reveal_gauge],
    histograms as cumulative [reveal_histogram_bucket] series with the
    conventional [+Inf] terminal bucket, events as
    [reveal_event_total{name,level}].  Deterministic: every section is
    pre-sorted and label values escaped. *)
