(** Trace segmentation by peak detection.

    The sampler's execution time varies per coefficient (rejection
    sampling), so the attacker cannot slice the trace at a fixed
    stride.  Section III-C of the paper locates each distribution call
    through its "distinguishable and visible peaks" — on this device,
    the div-heavy burn of the polar loop — and uses them as start/end
    markers.  This module implements exactly that:

    + smooth the trace with a short moving average (removes sub-cycle
      pulse shape and most measurement noise),
    + threshold into high-power bursts — by default with Otsu's
      bimodal split, which lands between the divider-unit plateau and
      ordinary code regardless of how much of the trace each occupies,
    + merge bursts closer than a gap (the polar loop's iterations)
      into one distribution call,
    + report the quiet region after each call — the sign/assignment
      code of one coefficient — as that coefficient's window. *)

type threshold =
  | Auto  (** Otsu's bimodal split of the smoothed power histogram *)
  | Absolute of float
      (** profiling calibrates once with {!auto_threshold_fv} and pins the
          level so that all traces segment identically *)

type config = {
  threshold : threshold;
  smooth_radius : int;  (** moving-average half width, in samples *)
  merge_gap : int;  (** bursts closer than this many samples are one call *)
  min_burst : int;  (** ignore bursts shorter than this *)
}

val default : config
(** Auto threshold, radius 2, gap 55, min burst 4. *)

type window = { start : int; stop : int }
(** Half-open sample range [start, stop). *)

(** Every kernel reads the trace as a borrowed {!Mathkit.Fvec} view:
    one view in, no per-stage copies.  A [float array] caller wraps it
    with {!Mathkit.Fvec.of_array}. *)

val smooth_fv : int -> Mathkit.Fvec.t -> Mathkit.Fvec.t
(** Centred moving average (a fresh vector). *)

val auto_threshold_fv : config -> Mathkit.Fvec.t -> float
(** The level the Auto rule would pick for this trace.  An empty trace
    yields 0.0 and a flat trace yields its constant level — both leave
    {!burst_regions_fv} with zero bursts rather than crashing; use
    {!segment_fv} to get a typed error instead. *)

val burst_regions_fv : config -> Mathkit.Fvec.t -> window array
(** Merged high-power regions, one per distribution call. *)

val windows_fv : config -> Mathkit.Fvec.t -> window array
(** Quiet regions between consecutive bursts: window [i] covers
    coefficient [i]'s sign/assignment code.  The final window runs to
    the end of the trace. *)

val views : Mathkit.Fvec.t -> window array -> length:int -> Mathkit.Fvec.t array
(** Clip every window to its first [length] samples — the
    fixed-dimension vectors the templates consume.  A window whose
    first [length] samples lie inside both its span and the trace is
    returned as a borrowed sub-view of [samples]; shorter windows get
    a zero-padded fresh vector.  Views alias the trace — treat them as
    read-only. *)

(** {1 Resilient segmentation}

    {!windows_fv} silently returns however many windows it finds; on a
    faulty capture that poisons everything downstream.  {!segment_fv}
    instead validates the count against the expected number of
    distribution calls, repairs what it can, and reports per-window
    quality so the attack can gate its confidence. *)

type quality =
  | Clean  (** delimited by two real bursts, plausible length *)
  | Resynced
      (** a delimiting burst was synthesised at the expected cadence
          (missed burst), or a spurious glitch burst was excised *)
  | Suspect
      (** length is a >3.5-MAD outlier: mis-delimited.  Never
          overrides [Resynced] *)

type segment_error =
  | Empty_trace
  | Flat_trace  (** no burst cleared the threshold — all-quiet capture *)
  | Count_mismatch of { expected : int; found : int }
      (** repair could not reconcile the burst count *)

type segmented = { wins : window array; quality : quality array }

val error_to_string : segment_error -> string

val segment_fv : config -> expected:int -> Mathkit.Fvec.t -> (segmented, segment_error) result
(** [segment_fv cfg ~expected samples] returns exactly [expected] windows
    or a typed error — never a silent short array.  When the burst
    count is off it first drops glitch-length spurious bursts
    (< 0.6 x median length), then plants synthetic bursts at the median
    cadence inside oversized gaps (including a missed final burst);
    affected windows are flagged [Resynced].  Other windows whose
    length is a gross outlier (median absolute deviation test) are
    flagged [Suspect].  On a clean trace with the right burst count the result
    equals {!windows_fv} with every flag [Clean].
    @raise Invalid_argument when [expected <= 0]. *)
