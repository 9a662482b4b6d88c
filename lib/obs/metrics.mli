(** Typed metrics registry: counters, gauges and fixed-bucket
    histograms, keyed by name.

    Stages get-or-create instruments once per run (registry access
    takes a lock) and then update them on the hot path lock-free
    (counters/gauges are atomics) or under a per-instrument mutex
    (histograms).  {!snapshot} renders the whole registry as one JSON
    object with names sorted, so the final "metrics" line of a trace
    is deterministic. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** {1 Counters} — monotonically increasing integers. *)

val counter : t -> string -> counter
(** Get or create by name.  The first creation wins; later calls with
    the same name return the same instrument. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

(** {1 Gauges} — last-write-wins floats. *)

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} — fixed buckets, cumulative-free representation. *)

val histogram : ?buckets:float array -> t -> string -> histogram
(** [buckets] are the ascending upper bounds (one bucket per bound
    plus an implicit overflow slot); must be strictly increasing or
    [Invalid_argument] is raised.  As with {!counter}, first creation
    wins — the bucket layout of later calls is ignored. *)

val observe : histogram -> float -> unit
(** A value equal to a bound counts in that bound's bucket; values
    above the last bound count as overflow. *)

type histogram_snapshot = {
  name : string;
  count : int;
  sum : float;
  min : float option;  (** [None] when no observations *)
  max : float option;
  bounds : float array;
  counts : int array;
  overflow : int;
}

val histogram_snapshot : histogram -> histogram_snapshot

val estimate_quantile :
  count:int ->
  min:float option ->
  max:float option ->
  buckets:(float * int) list ->
  overflow:int ->
  float ->
  float option
(** [estimate_quantile ~count ~min ~max ~buckets ~overflow q] estimates
    the [q]-quantile (0 ≤ q ≤ 1, clamped) of a bucketed distribution by
    linear interpolation inside the bucket containing the rank.
    [buckets] pairs each ascending upper bound with its (non-cumulative)
    count; [overflow] counts observations above the last bound.  The
    observed [min]/[max] bound the open outer bucket edges and clamp the
    result, so estimates never leave the observed range.  [None] when
    [count <= 0].  Pure and deterministic — merged summaries report the
    same estimate regardless of which process computes it. *)

val quantile : histogram_snapshot -> float -> float option
(** {!estimate_quantile} applied to a snapshot's buckets. *)

val snapshot : t -> Json.t
(** [{"counters":{...},"gauges":{...},"histograms":{...}}], each
    sub-object sorted by instrument name. *)
